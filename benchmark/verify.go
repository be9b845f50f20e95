package main

import (
	"math"
	"slices"
	"sync"

	"repro/internal/model"
)

// shadow is the benchmark's own copy of the acknowledged state: the record
// of every live object, indexed by ObjectID. A caller writes an entry only
// after the Store acknowledged the write, and only for objects it owns, so
// the callers never touch the same element; readers run between phases.
type shadow struct {
	objs []model.Object
	live []bool
}

func newShadow(maxID model.ObjectID) *shadow {
	return &shadow{objs: make([]model.Object, maxID+1), live: make([]bool, maxID+1)}
}

func (s *shadow) set(o model.Object)    { s.objs[o.ID], s.live[o.ID] = o, true }
func (s *shadow) del(id model.ObjectID) { s.live[id] = false }

func (s *shadow) len() int {
	n := 0
	for _, l := range s.live {
		if l {
			n++
		}
	}
	return n
}

// search is the brute-force answer to q: model.Matches, the predicate the
// indexes refine with, over every live record. Ascending ids.
func (s *shadow) search(q model.RangeQuery) []model.ObjectID {
	var out []model.ObjectID
	for id, o := range s.objs {
		if s.live[id] && model.Matches(o, q) {
			out = append(out, o.ID)
		}
	}
	return out
}

// knnDistances returns the k smallest distances to q.Center at q.T,
// ascending.
func (s *shadow) knnDistances(q model.KNNQuery) []float64 {
	best := make([]float64, 0, q.K+1)
	for id, o := range s.objs {
		if !s.live[id] {
			continue
		}
		d := o.PosAt(q.T).DistTo(q.Center)
		if len(best) == q.K && d >= best[q.K-1] {
			continue
		}
		at, _ := slices.BinarySearch(best, d)
		best = slices.Insert(best, at, d)
		if len(best) > q.K {
			best = best[:q.K]
		}
	}
	return best
}

func sameIDs(got, want []model.ObjectID) bool {
	got = slices.Clone(got)
	slices.Sort(got)
	return slices.Equal(got, want)
}

// sameDistances compares a kNN answer with the brute-force distances. Ties
// may pick different objects, so only distances are compared; partitions
// compute them in rotated frames, hence the tolerance.
func sameDistances(got []model.Neighbor, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, n := range got {
		if math.Abs(n.Dist-want[i]) > 1e-6*(1+want[i]) {
			return false
		}
	}
	return true
}

// verifyAnswers checks range and kNN answers against the shadow on
// maxProcs goroutines and returns how many were checked and how many were
// wrong. The shadow must not change while it runs.
func verifyAnswers(sh *shadow, qs []model.RangeQuery, ids [][]model.ObjectID,
	ks []model.KNNQuery, ns [][]model.Neighbor) (checked, wrong int64) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	total := len(qs) + len(ks)
	for w := 0; w < maxProcs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var bad int64
			for i := w; i < total; i += maxProcs {
				ok := false
				if i < len(qs) {
					ok = sameIDs(ids[i], sh.search(qs[i]))
				} else {
					j := i - len(qs)
					ok = sameDistances(ns[j], sh.knnDistances(ks[j]))
				}
				if !ok {
					bad++
				}
			}
			mu.Lock()
			wrong += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	return int64(total), wrong
}
