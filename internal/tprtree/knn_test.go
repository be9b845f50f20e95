package tprtree

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// The reference: SearchKNNWithin as it was before it kept only what can still
// be an answer — every slot of every opened node boxed onto a container/heap,
// nodes before objects at equal distance, the search ending when K objects
// have been popped or the head lies past bound.

type refKNNItem struct {
	dist   float64
	page   storage.PageID
	level  int
	id     model.ObjectID
	isNode bool
}

type refKNNHeap []refKNNItem

func (h refKNNHeap) Len() int { return len(h) }
func (h refKNNHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].isNode && !h[j].isNode
}
func (h refKNNHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refKNNHeap) Push(x any)   { *h = append(*h, x.(refKNNItem)) }
func (h *refKNNHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func refSearchKNNWithin(t *Tree, q model.KNNQuery, bound float64) ([]model.Neighbor, error) {
	pq := &refKNNHeap{}
	heap.Push(pq, refKNNItem{dist: 0, page: t.root, level: t.height - 1, isNode: true})
	var out []model.Neighbor
	for pq.Len() > 0 && len(out) < q.K {
		it := heap.Pop(pq).(refKNNItem)
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
					heap.Push(pq, refKNNItem{dist: o.PosAt(q.T).DistTo(q.Center), id: o.ID})
				} else {
					s := entrySlot(data, i)
					heap.Push(pq, refKNNItem{dist: minDistAt(getMR(s), q.Center, q.T), page: getChild(s), level: it.level - 1, isNode: true})
				}
			}
		}); err != nil {
			return nil, err
		}
	}
	model.SortNeighbors(out)
	return out, nil
}

// knnHistory builds a tree over a pool of the given size from a seeded
// history: a load of 4,000 objects, uniform or with road-like velocity skew,
// then 3,000 updates at an advancing clock, so the node bounds carry a spread
// of reference times. One object in 40 is a twin — the same trajectory as
// another under its own id — so answers tie at every distance a twin sits at.
func knnHistory(tb testing.TB, seed int64, skew bool, pages int) (*Tree, *storage.BufferPool, []model.Object) {
	tb.Helper()
	const load, updates = 4000, 3000
	rng := rand.New(rand.NewSource(seed))
	pool := storage.NewBufferPool(storage.NewMemStore(), pages)
	tr, err := NewTree(pool, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	now := 0.0
	draw := func(id model.ObjectID, live []model.Object) model.Object {
		if len(live) > 0 && rng.Intn(40) == 0 {
			o := live[rng.Intn(len(live))]
			o.ID = id
			return o
		}
		if skew {
			o := randomWorkload(1, rng, now)[0]
			o.ID = id
			return o
		}
		return uniformObj(rng, id, now)
	}
	live := make([]model.Object, 0, load)
	for i := 0; i < load; i++ {
		now += 0.01
		o := draw(model.ObjectID(i+1), live)
		if err := tr.Insert(o); err != nil {
			tb.Fatal(err)
		}
		live = append(live, o)
	}
	for i := 0; i < updates; i++ {
		now += 0.01
		j := rng.Intn(len(live))
		o := draw(live[j].ID, live)
		if err := tr.Update(live[j], o); err != nil {
			tb.Fatal(err)
		}
		live[j] = o
	}
	if tr.Height() < 3 {
		tb.Fatalf("height %d, want at least 3", tr.Height())
	}
	return tr, pool, live
}

// TestKNNEquivalence: the bounded best-first search answers 20,000 queries
// exactly as a reference copy of the search that queued every slot, on the
// same trees — uniform and skewed, over pools of 3 and 68 frames — with K of
// 1, 10, 100 and Len()+1, no bound, a finite one and 0, centres in and
// around the domain and on objects, and T from now to now+120. Distances are
// bit-identical, ids agree wherever the K-th distance is untied, where it is
// tied the lowest ids at that distance win, and every query costs the same
// pool accesses (hits + misses): the same nodes are opened.
func TestKNNEquivalence(t *testing.T) {
	const perTree = 5000
	queries, tieCuts, pages := 0, 0, int64(0)
	for _, tc := range []struct {
		seed int64
		skew bool
	}{{1, false}, {2, true}} {
		for _, poolPages := range []int{3, 68} {
			tr, pool, live := knnHistory(t, tc.seed, tc.skew, poolPages)
			rng := rand.New(rand.NewSource(tc.seed * 100))
			now := tr.clock
			for i := 0; i < perTree; i++ {
				q := model.KNNQuery{Now: now, T: now + rng.Float64()*120, K: []int{1, 10, 100, tr.Len() + 1}[i%4]}
				if i%9 == 0 {
					q.T = now
				}
				q.Center = geom.V(rng.Float64()*110000-5000, rng.Float64()*110000-5000)
				if i%3 == 0 {
					q.Center = live[rng.Intn(len(live))].PosAt(q.T)
				}
				bound := math.Inf(1)
				switch (i / 4) % 3 {
				case 1:
					bound = rng.Float64() * 3000
					if i%2 == 0 { // exactly some object's distance
						bound = live[rng.Intn(len(live))].PosAt(q.T).DistTo(q.Center)
					}
				case 2:
					bound = 0
				}
				a0 := accesses(pool)
				want, err := refSearchKNNWithin(tr, q, bound)
				if err != nil {
					t.Fatal(err)
				}
				a1 := accesses(pool)
				got, err := tr.SearchKNNWithin(q, bound)
				if err != nil {
					t.Fatal(err)
				}
				a2 := accesses(pool)
				where := func() string { return fmt.Sprintf("seed %d, pool %d, query %d", tc.seed, poolPages, i) }
				if a2-a1 != a1-a0 {
					t.Fatalf("%s (%+v, bound %g): %d pool accesses, reference %d", where(), q, bound, a2-a1, a1-a0)
				}
				pages += a2 - a1
				queries++
				if len(got) != len(want) {
					t.Fatalf("%s (%+v, bound %g): %d neighbours, reference %d", where(), q, bound, len(got), len(want))
				}
				if len(got) == 0 {
					continue
				}
				// Fewer than K: everything within bound, nothing cut, so every id
				// agrees. K of them: ids agree below the K-th distance.
				kth := math.Inf(1)
				if len(got) == q.K {
					kth = got[len(got)-1].Dist
				}
				for j := range got {
					if math.Float64bits(got[j].Dist) != math.Float64bits(want[j].Dist) {
						t.Fatalf("%s: neighbour %d at %v, reference %v", where(), j, got[j], want[j])
					}
					if got[j].Dist != kth && got[j].ID != want[j].ID {
						t.Fatalf("%s: neighbour %d is %v below the K-th distance %g, reference %v", where(), j, got[j], kth, want[j])
					}
				}
				if len(got) < q.K {
					continue
				}
				// At the K-th distance: the lowest ids of every object there.
				var tied []model.ObjectID
				for _, o := range live {
					if o.PosAt(q.T).DistTo(q.Center) == kth {
						tied = append(tied, o.ID)
					}
				}
				slices.Sort(tied)
				at := len(got)
				for at > 0 && got[at-1].Dist == kth {
					at--
				}
				for j, nb := range got[at:] {
					if j >= len(tied) || nb.ID != tied[j] {
						t.Fatalf("%s: at the K-th distance %g got %v, want the lowest of ids %v", where(), kth, got[at:], tied)
					}
				}
				if len(tied) > len(got)-at {
					tieCuts++
				}
			}
		}
	}
	if tieCuts == 0 {
		t.Fatal("no query cut a tie at the K-th distance: the tie rule went untested")
	}
	t.Logf("%d queries identical to the reference, %.2f pool accesses per query, %d with a tie cut at the K-th distance", queries, float64(pages)/float64(queries), tieCuts)
}

// TestKNNTieAtKthDistance: a hand-built two-leaf tree in which the nearer leaf
// holds id 9 at distance 100 from the centre and the other leaf's minimum
// distance is exactly 100, with id 2 at exactly 100 in it. For K = 1 the
// second leaf must still be opened once id 9 fills the answer, and id 2 —
// the lower id at the K-th distance — must win.
func TestKNNTieAtKthDistance(t *testing.T) {
	tr := newTestTree(t, 8, Config{})
	obj := func(id model.ObjectID, x, y float64) entry {
		return leafEntry(model.Object{ID: id, Pos: geom.V(x, y)})
	}
	near := &node{id: tr.root, level: 0, entries: []entry{obj(9, 0, 100)}}
	far := &node{level: 0, entries: []entry{obj(2, 100, 0)}}
	for i := 0; len(near.entries) < leafMin+5; i++ { // farther than 100 from the centre
		near.entries = append(near.entries, obj(model.ObjectID(100+i), -200-float64(i), -150-float64(i)))
		far.entries = append(far.entries, obj(model.ObjectID(200+i), 120+float64(i), float64(i)))
	}
	var err error
	if far.id, err = tr.pool.Allocate(); err != nil {
		t.Fatal(err)
	}
	rootID, err := tr.pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	root := &node{id: rootID, level: 1, entries: []entry{{child: near.id, mr: near.boundAt(0)}, {child: far.id, mr: far.boundAt(0)}}}
	for _, n := range []*node{near, far, root} {
		if err := tr.writeNode(n); err != nil {
			t.Fatal(err)
		}
	}
	tr.root, tr.height, tr.size = rootID, 2, len(near.entries)+len(far.entries)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	centre := geom.V(0, 0)
	if d := minDistAt(far.boundAt(0), centre, 0); d != 100 {
		t.Fatalf("far leaf at minimum distance %g, want exactly 100", d)
	}
	before := accesses(tr.pool)
	got, err := tr.SearchKNN(model.KNNQuery{Center: centre, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if opened := accesses(tr.pool) - before; opened != 3 {
		t.Fatalf("%d pool accesses, want 3: the root and both leaves", opened)
	}
	if want := []model.Neighbor{{ID: 2, Dist: 100}}; !slices.Equal(got, want) {
		t.Fatalf("SearchKNN(K=1) = %v, want %v", got, want)
	}
}
