package bxtree

import (
	"math"

	"repro/internal/bptree"
	"repro/internal/geom"
	"repro/internal/model"
)

// SearchKNN implements model.KNNIndex: SearchKNNWithin with no bound.
func (t *Tree) SearchKNN(q model.KNNQuery) ([]model.Neighbor, error) {
	return t.SearchKNNWithin(q, math.Inf(1))
}

// SearchKNNWithin returns the (up to) q.K nearest objects among those no
// farther than bound from the centre, with the incremental-range strategy the
// original Bx-tree paper uses: issue a circular range query whose radius is
// estimated from the data density, and double it until the k-th nearest
// candidate lies within the queried radius (which proves no closer object
// was missed). The radius never grows past bound — a caller that knows the
// global k-th distance (the VP manager, from another partition) has no use
// for anything beyond it — and the circle of radius bound is complete by
// construction, however few objects it holds. Unbounded, the search falls
// back to a full scan when the radius outgrows the data space.
func (t *Tree) SearchKNNWithin(q model.KNNQuery, bound float64) ([]model.Neighbor, error) {
	if t.size == 0 {
		return nil, nil
	}
	k := min(q.K, t.size)
	// Radius expected to contain k objects under uniform density, padded.
	density := float64(t.size) / t.cfg.Domain.Area()
	r := min(2*math.Sqrt(float64(k)/(math.Pi*density)), bound)
	diag := math.Hypot(t.cfg.Domain.Width(), t.cfg.Domain.Height())
	// Objects can drift outside the domain by at most their travel since
	// their reference time; 4x the diagonal comfortably covers workloads.
	maxR := 4 * diag

	// A circle of twice the radius that holds k holds about 4k.
	ns := make([]model.Neighbor, 0, min(4*k, t.size))
	for {
		c := geom.Circle{C: q.Center, R: r}
		ns = ns[:0]
		err := t.searchVisit(model.RangeQuery{Kind: model.TimeSlice, Circle: c, Rect: c.Bound(), Now: q.Now, T0: q.T},
			func(e bptree.Entry) bool {
				ns = append(ns, neighbor(e, q))
				return true
			})
		if err != nil {
			return nil, err
		}
		model.SortNeighbors(ns)
		if len(ns) >= k && ns[k-1].Dist <= r {
			return ns[:k], nil
		}
		if r >= bound {
			return ns[:min(k, len(ns))], nil
		}
		if r >= maxR {
			return t.knnFullScan(q, k)
		}
		r = min(2*r, bound)
	}
}

// knnFullScan scans every bucket's whole key range: the correct (and
// expensive) last resort for adversarial distributions.
func (t *Tree) knnFullScan(q model.KNNQuery, k int) ([]model.Neighbor, error) {
	ns := make([]model.Neighbor, 0, t.size)
	for _, b := range t.buckets {
		prefix := uint64(b.idx) << (2 * t.cfg.GridOrder)
		end := prefix + (uint64(1) << (2 * t.cfg.GridOrder))
		err := t.bt.Scan(prefix, end, func(e bptree.Entry) bool {
			ns = append(ns, neighbor(e, q))
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	model.SortNeighbors(ns)
	return ns[:min(k, len(ns))], nil
}

func neighbor(e bptree.Entry, q model.KNNQuery) model.Neighbor {
	return model.Neighbor{ID: e.Key.ID, Dist: e.Object().PosAt(q.T).DistTo(q.Center)}
}

var _ model.KNNIndex = (*Tree)(nil)
