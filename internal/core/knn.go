package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/parallel"
)

// boundedKNN is the kNN search of an index that can stop at a distance the
// caller already knows to be enough (both built-in trees). An index without
// it is probed through model.KNNIndex, unbounded.
type boundedKNN interface {
	SearchKNNWithin(q model.KNNQuery, bound float64) ([]model.Neighbor, error)
}

// SearchKNN implements model.KNNIndex for the partitioned index: each
// partition answers the kNN query in its own coordinate frame — rotations
// are isometries, so the per-partition distances are directly comparable —
// and the manager merges the per-partition lists into the global top k.
//
// The query pays for its k neighbours once, not once per partition: the most
// populous partition (ties to the lowest index: deterministic for a given
// state) is probed first, unbounded, and its k-th distance is an upper bound
// on the global k-th distance; the other partitions are then probed, through
// the same bounded worker pool as Search, for what lies within that bound
// only. The bound is inclusive and carries the slack of the kNN tie rule —
// distances within 1e-9·(1+d) of each other are a tie — because it was
// computed in another frame and differs from this one's value in the last
// bits, and an equidistant object with a lower id must still come back. With
// fewer than k objects in the first partition there is no bound yet and the
// rest are probed unbounded. Every underlying index must itself support kNN.
// The caller has validated q.
func (m *Manager) SearchKNN(q model.KNNQuery) ([]model.Neighbor, error) {
	m.rlock(true)
	defer m.runlock(true)
	lists := make([][]model.Neighbor, len(m.pars))
	probe := func(i int, bound float64) (err error) {
		p := &m.pars[i]
		pq := q
		if !p.identity {
			pq.Center = p.rot.Apply(q.Center)
		}
		switch idx := p.idx.(type) {
		case boundedKNN:
			lists[i], err = idx.SearchKNNWithin(pq, bound)
		case model.KNNIndex:
			lists[i], err = idx.SearchKNN(pq)
		default:
			err = fmt.Errorf("core: partition %d index %T does not support kNN: %w",
				i, p.idx, model.ErrUnsupported)
		}
		return err
	}
	first := 0
	for i := range m.pars {
		if m.pars[i].idx.Len() > m.pars[first].idx.Len() {
			first = i
		}
	}
	bound := math.Inf(1)
	if err := probe(first, bound); err != nil {
		return nil, err
	}
	if l := lists[first]; len(l) >= q.K {
		bound = l[q.K-1].Dist + 1e-9*(1+l[q.K-1].Dist)
	}
	err := parallel.Do(len(m.pars)-1, m.cfg.SearchParallelism, func(i int) error {
		if i >= first {
			i++
		}
		return probe(i, bound)
	})
	if err != nil {
		return nil, err
	}
	return model.MergeNeighbors(q.K, lists...), nil
}

var _ model.KNNIndex = (*Manager)(nil)
