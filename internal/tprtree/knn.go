package tprtree

import (
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// SearchKNN implements model.KNNIndex: SearchKNNWithin with no bound.
func (t *Tree) SearchKNN(q model.KNNQuery) ([]model.Neighbor, error) {
	return t.SearchKNNWithin(q, math.Inf(1))
}

// SearchKNNWithin returns the (up to) q.K nearest objects among those no
// farther than bound from the centre, nearest first, ties by id. It is the
// best-first traversal of Hjaltason & Samet keeping only what can still be an
// answer (see the package comment): the minimum distance of a node is taken
// at the query's evaluation time, between the centre and the node's
// time-parameterized rectangle, and nothing under a node farther than the
// limit can be nearer. A node at exactly the limit is still opened, since it
// may hold an object at the K-th distance with a lower id.
func (t *Tree) SearchKNNWithin(q model.KNNQuery, bound float64) ([]model.Neighbor, error) {
	sc := knnScratchPool.Get().(*knnScratch)
	defer knnScratchPool.Put(sc)
	sc.nodes = append(sc.nodes[:0], pendingNode{page: t.root, level: t.height - 1})
	sc.best = sc.best[:0]
	lim, lim2 := bound, paddedSquare(bound)
	for len(sc.nodes) > 0 {
		n := sc.popNode()
		if n.dist > lim {
			break
		}
		if err := t.view(n.page, n.level, func(data []byte, count int) {
			if n.level > 0 {
				for i := 0; i < count; i++ {
					s := entrySlot(data, i)
					if d := minDistAt(getMR(s), q.Center, q.T); d <= lim {
						sc.pushNode(pendingNode{dist: d, page: getChild(s), level: n.level - 1})
					}
				}
				return
			}
			for i := 0; i < count; i++ {
				s := leafSlot(data, i)
				pos := geom.Vec2{X: getF64(s[8:16]), Y: getF64(s[16:24])}
				vel := geom.Vec2{X: getF64(s[24:32]), Y: getF64(s[32:40])}
				d := pos.Add(vel.Scale(q.T - getF64(s[40:48]))).Sub(q.Center) // o.PosAt(q.T) - q.Center
				if d.X*d.X+d.Y*d.Y > lim2 {
					continue
				}
				nb := model.Neighbor{ID: getID(s), Dist: d.Norm()}
				if nb.Dist <= bound && sc.offer(nb, q.K) && len(sc.best) == q.K {
					lim = min(bound, sc.best[0].Dist)
					lim2 = paddedSquare(lim)
				}
			}
		}); err != nil {
			return nil, err
		}
	}
	if len(sc.best) == 0 {
		return nil, nil
	}
	out := append([]model.Neighbor(nil), sc.best...)
	model.SortNeighbors(out)
	return out, nil
}

// paddedSquare is the leaf screen's squared limit: lim² padded by a relative
// 1e-9 (math.Hypot and a sum of squares each round by a few ulps) and by an
// absolute 1e-300 (below which the squares underflow), so a slot it rejects
// is farther than lim however the exact distance rounds.
func paddedSquare(lim float64) float64 {
	return lim*lim*(1+1e-9) + 1e-300
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

// pendingNode is a page the search has yet to open, the level it must hold
// and its minimum distance from the centre.
type pendingNode struct {
	dist  float64
	page  storage.PageID
	level int
}

// knnScratch is one search's two heaps, pooled across searches: nodes is a
// min-heap by dist, best a max-heap by (Dist, ID) of at most min(K, Len())
// neighbours.
type knnScratch struct {
	nodes []pendingNode
	best  []model.Neighbor
}

var knnScratchPool = sync.Pool{New: func() any { return new(knnScratch) }}

func (sc *knnScratch) pushNode(n pendingNode) {
	h := append(sc.nodes, n)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sc.nodes = h
}

func (sc *knnScratch) popNode() pendingNode {
	h := sc.nodes
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].dist < h[c].dist {
			c++
		}
		if h[i].dist <= h[c].dist {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	sc.nodes = h
	return top
}

// farther orders the best heap: a is a worse answer than b.
func farther(a, b model.Neighbor) bool {
	return a.Dist > b.Dist || (a.Dist == b.Dist && a.ID > b.ID)
}

// offer adds nb to the best heap, which holds at most k neighbours, and
// reports whether it was kept: always while the heap has room, then only in
// place of a worse top.
func (sc *knnScratch) offer(nb model.Neighbor, k int) bool {
	h := sc.best
	i := 0
	switch {
	case len(h) < k:
		h = append(h, nb)
		for i = len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !farther(nb, h[p]) {
				break
			}
			h[i] = h[p]
			i = p
		}
	case len(h) > 0 && farther(h[0], nb):
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && farther(h[c+1], h[c]) {
				c++
			}
			if !farther(h[c], nb) {
				break
			}
			h[i] = h[c]
			i = c
		}
	default:
		return false
	}
	h[i] = nb
	sc.best = h
	return true
}

var _ model.KNNIndex = (*Tree)(nil)
