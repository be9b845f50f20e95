package bxtree

import (
	"math"

	"repro/internal/bptree"
	"repro/internal/geom"
	"repro/internal/model"
)

// SearchKNN implements model.KNNIndex with the incremental-range strategy
// the original Bx-tree paper uses: issue a circular range query whose
// radius is estimated from the data density, and double it until the k-th
// nearest candidate lies within the queried radius (which proves no closer
// object was missed). Falls back to a full scan when the radius outgrows
// the data space.
func (t *Tree) SearchKNN(q model.KNNQuery) ([]model.Neighbor, error) {
	if t.size == 0 {
		return nil, nil
	}
	k := q.K
	if k > t.size {
		k = t.size
	}
	// Radius expected to contain k objects under uniform density, padded.
	density := float64(t.size) / t.cfg.Domain.Area()
	r := 2 * math.Sqrt(float64(k)/(math.Pi*density))
	diag := math.Hypot(t.cfg.Domain.Width(), t.cfg.Domain.Height())
	// Objects can drift outside the domain by at most their travel since
	// their reference time; 4x the diagonal comfortably covers workloads.
	maxR := 4 * diag

	for {
		rq := model.RangeQuery{
			Kind:   model.TimeSlice,
			Circle: geom.Circle{C: q.Center, R: r},
			Rect:   geom.Circle{C: q.Center, R: r}.Bound(),
			Now:    q.Now,
			T0:     q.T,
		}
		objs, err := t.SearchObjects(rq)
		if err != nil {
			return nil, err
		}
		if len(objs) >= k {
			ns := neighborsOf(objs, q)
			if ns[k-1].Dist <= r {
				return ns[:k], nil
			}
		}
		if r >= maxR {
			return t.knnFullScan(q, k)
		}
		r *= 2
	}
}

// knnFullScan scans every bucket's whole key range: the correct (and
// expensive) last resort for adversarial distributions.
func (t *Tree) knnFullScan(q model.KNNQuery, k int) ([]model.Neighbor, error) {
	var objs []model.Object
	for _, b := range t.buckets {
		prefix := uint64(b.idx) << (2 * t.cfg.GridOrder)
		end := prefix + (uint64(1) << (2 * t.cfg.GridOrder))
		err := t.bt.Scan(prefix, end, func(e bptree.Entry) bool {
			objs = append(objs, e.Object())
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	ns := neighborsOf(objs, q)
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns, nil
}

func neighborsOf(objs []model.Object, q model.KNNQuery) []model.Neighbor {
	ns := make([]model.Neighbor, len(objs))
	for i, o := range objs {
		ns[i] = model.Neighbor{ID: o.ID, Dist: o.PosAt(q.T).DistTo(q.Center)}
	}
	model.SortNeighbors(ns)
	return ns
}

var _ model.KNNIndex = (*Tree)(nil)
