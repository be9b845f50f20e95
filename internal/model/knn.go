package model

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
)

// KNNQuery asks for the K objects nearest to Center at (future) time T.
// The paper motivates its circular range queries as "the filter step of
// the k Nearest Neighbor query" (Section 6); this is the full refinement.
type KNNQuery struct {
	Center geom.Vec2
	K      int
	Now    float64 // issue time
	T      float64 // evaluation time (>= Now)
}

// Validate reports malformed queries, wrapping ErrInvalidQuery.
func (q KNNQuery) Validate() error {
	switch {
	case !finite(q.Center.X, q.Center.Y, q.Now, q.T):
		return fmt.Errorf("%w: non-finite field in %+v", ErrInvalidQuery, q)
	case q.K <= 0:
		return fmt.Errorf("%w: kNN with k=%d", ErrInvalidQuery, q.K)
	case q.T < q.Now:
		return fmt.Errorf("%w: kNN time %g precedes issue time %g", ErrInvalidQuery, q.T, q.Now)
	}
	return nil
}

// Neighbor is one kNN result.
type Neighbor struct {
	ID   ObjectID
	Dist float64
}

// KNNIndex is implemented by indexes that support k-nearest-neighbor
// search in addition to range queries.
type KNNIndex interface {
	Index
	SearchKNN(q KNNQuery) ([]Neighbor, error)
}

// SortNeighbors orders by distance, ties by id (deterministic results).
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
}

// MergeNeighbors combines per-partition result lists into the global top k
// (used by the VP manager: rotations are isometries, so distances computed
// in different partition frames are directly comparable).
func MergeNeighbors(k int, lists ...[]Neighbor) []Neighbor {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	all := make([]Neighbor, 0, n)
	for _, l := range lists {
		all = append(all, l...)
	}
	SortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// SearchKNN implements KNNIndex for the brute-force oracle.
func (b *BruteForce) SearchKNN(q KNNQuery) ([]Neighbor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ns := make([]Neighbor, 0, len(b.objs))
	for _, o := range b.objs {
		ns = append(ns, Neighbor{ID: o.ID, Dist: o.PosAt(q.T).DistTo(q.Center)})
	}
	SortNeighbors(ns)
	if len(ns) > q.K {
		ns = ns[:q.K]
	}
	return ns, nil
}

var _ KNNIndex = (*BruteForce)(nil)
