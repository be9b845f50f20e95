package tprtree

import (
	"container/heap"
	"math"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// SearchKNN implements model.KNNIndex: SearchKNNWithin with no bound.
func (t *Tree) SearchKNN(q model.KNNQuery) ([]model.Neighbor, error) {
	return t.SearchKNNWithin(q, math.Inf(1))
}

// SearchKNNWithin returns the (up to) q.K nearest objects among those no
// farther than bound from the centre, with the best-first traversal of
// Hjaltason & Samet: a priority queue ordered by the minimum distance (at
// the query's evaluation time) between the query point and the entry's
// time-parameterized rectangle. When the queue's head is an object, no
// unvisited entry can be nearer, so it is the next neighbor; when the head is
// past bound, so is everything unvisited.
func (t *Tree) SearchKNNWithin(q model.KNNQuery, bound float64) ([]model.Neighbor, error) {
	pq := &knnHeap{}
	heap.Push(pq, knnItem{dist: 0, page: t.root, level: t.height - 1, isNode: true})
	var out []model.Neighbor
	for pq.Len() > 0 && len(out) < q.K {
		it := heap.Pop(pq).(knnItem)
		if it.dist > bound {
			break
		}
		if !it.isNode {
			out = append(out, model.Neighbor{ID: it.id, Dist: it.dist})
			continue
		}
		if err := t.view(it.page, it.level, func(data []byte, count int) {
			for i := 0; i < count; i++ {
				if it.level == 0 {
					o := getObj(leafSlot(data, i))
					heap.Push(pq, knnItem{dist: o.PosAt(q.T).DistTo(q.Center), id: o.ID})
				} else {
					s := entrySlot(data, i)
					heap.Push(pq, knnItem{
						dist:   minDistAt(getMR(s), q.Center, q.T),
						page:   getChild(s),
						level:  it.level - 1,
						isNode: true,
					})
				}
			}
		}); err != nil {
			return nil, err
		}
	}
	model.SortNeighbors(out)
	return out, nil
}

// minDistAt returns the distance from p to the rectangle mr occupies at
// time t (0 when inside).
func minDistAt(mr geom.MovingRect, p geom.Vec2, t float64) float64 {
	r := mr.AtTime(t)
	dx := maxf(maxf(r.MinX-p.X, 0), p.X-r.MaxX)
	dy := maxf(maxf(r.MinY-p.Y, 0), p.Y-r.MaxY)
	if dx == 0 && dy == 0 {
		return 0
	}
	return geom.V(dx, dy).Norm()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

type knnItem struct {
	dist   float64
	page   storage.PageID // with its level, when isNode
	level  int
	id     model.ObjectID
	isNode bool
}

type knnHeap []knnItem

func (h knnHeap) Len() int { return len(h) }
func (h knnHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	// Visit nodes before objects at equal distance so an object is only
	// reported once nothing nearer can hide in a subtree.
	return h[i].isNode && !h[j].isNode
}
func (h knnHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x any)   { *h = append(*h, x.(knnItem)) }
func (h *knnHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

var _ model.KNNIndex = (*Tree)(nil)
