package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/parallel"
)

// SearchKNN implements model.KNNIndex for the partitioned index: each
// partition answers the kNN query in its own coordinate frame — rotations
// are isometries, so the per-partition distances are directly comparable —
// and the manager merges the per-partition top-k lists into the global one.
// Like Search, the partitions are probed by a bounded worker pool into
// per-partition buffers that are merged after the joins, in partition
// order. Every underlying index must itself support kNN. The caller has
// validated q.
func (m *Manager) SearchKNN(q model.KNNQuery) ([]model.Neighbor, error) {
	m.rlock(true)
	defer m.runlock(true)
	lists := make([][]model.Neighbor, len(m.pars))
	err := parallel.Do(len(m.pars), m.cfg.SearchParallelism, func(i int) (err error) {
		p := &m.pars[i]
		knn, ok := p.idx.(model.KNNIndex)
		if !ok {
			return fmt.Errorf("core: partition %s index %T does not support kNN: %w",
				p.spec.Name, p.idx, model.ErrUnsupported)
		}
		pq := q
		if !p.identity {
			pq.Center = p.rot.Apply(q.Center)
		}
		lists[i], err = knn.SearchKNN(pq)
		return err
	})
	if err != nil {
		return nil, err
	}
	return model.MergeNeighbors(q.K, lists...), nil
}

var _ model.KNNIndex = (*Manager)(nil)
