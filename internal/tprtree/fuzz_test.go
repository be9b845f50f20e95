package tprtree

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// FuzzTreeOps decodes a byte string into tree operations and runs them, with
// the clock advancing a quarter timestamp per operation, against
// model.BruteForce, over a pool smaller than one root-to-leaf path (3 frames:
// every page round-trips through eviction between its read going down and
// its write coming up) and over one that holds a few paths (30). Each
// operation is four bytes — opcode, two position bytes, an argument — and
// the opcodes cover single insert/delete/update, runs of up to 255 inserts
// or deletes (so a few hundred bytes reach height 3, overflow, reinsert,
// split, underflow and collapse the root again), a time-slice or
// time-interval window, and a kNN — K up to 15 or math.MaxInt, unbounded and
// then bounded by some object's distance — checked id for id against the
// oracle's sorted list. Positions, velocities and times are
// multiples of 400 m, 12 m/ts and 0.25 ts, so every product is exact and a
// disagreement with the oracle is the tree's, not rounding's; windows sit
// off that grid so no trajectory grazes one.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 10, 10, 0x9c, 0, 200, 40, 0x37, 6, 10, 10, 50, 3, 0, 0, 0x11, 7, 12, 9, 3, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	// Three parked records on one point and K = 2: the K-th distance is tied
	// and ids 1 and 2 must make the cut (heap order once gave 1 and 3).
	f.Add([]byte{0, 10, 10, 0x88, 0, 10, 10, 0x88, 0, 10, 10, 0x88, 7, 10, 12, 0x01})
	var grow, drain []byte
	for i := 0; i < 24; i++ { // 24 runs of 255 objects: height 3
		grow = append(grow, 4, byte(i*11), byte(i*29), 255)
		drain = append(drain, 5, byte(i), 0, 255)
	}
	f.Add(grow)
	f.Add(slices.Concat(grow, []byte{6, 100, 100, 90, 7, 30, 200, 15, 6, 7, 250, 0xff, 3, 1, 2, 3}, drain, []byte{7, 0, 0, 4, 6, 0, 0, 255}))

	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, pages := range []int{3, 30} {
			fuzzRun(t, ops, pages)
		}
	})
}

func fuzzRun(t *testing.T, ops []byte, pages int) {
	tr, err := NewTree(storage.NewBufferPool(storage.NewMemStore(), pages), Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.NewBruteForce()
	var live []model.Object
	next := model.ObjectID(1)
	now := 0.0
	obj := func(id model.ObjectID, a, b, c byte) model.Object {
		return model.Object{
			ID:  id,
			Pos: geom.V(float64(a)*400, float64(b)*400),
			Vel: geom.V(float64(int(c&15)-8)*12, float64(int(c>>4)-8)*12),
			T:   now,
		}
	}
	insert := func(step int, o model.Object) {
		if err := tr.Insert(o); err != nil {
			t.Fatalf("pool %d op %d: Insert(%v): %v", pages, step, o, err)
		}
		_ = oracle.Insert(o)
		live = append(live, o)
		next++
	}
	remove := func(step, i int) {
		o := live[i]
		if err := tr.Delete(o); err != nil {
			t.Fatalf("pool %d op %d: Delete(%v): %v", pages, step, o, err)
		}
		_ = oracle.Delete(o)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	check := func(step int) {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("pool %d op %d: %v", pages, step, err)
		}
	}
	for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
		now += 0.25
		a, b, c := ops[1], ops[2], ops[3]
		pick := (int(a)<<8 | int(b))
		switch ops[0] % 8 {
		case 0, 1:
			insert(step, obj(next, a, b, c))
		case 2:
			if len(live) > 0 {
				remove(step, pick%len(live))
			} else if err := tr.Delete(obj(next, a, b, c)); err != model.ErrNotFound {
				t.Fatalf("pool %d op %d: Delete on an empty tree: %v", pages, step, err)
			}
		case 3:
			if len(live) > 0 {
				i := pick % len(live)
				o := obj(live[i].ID, a^b, b^c, c)
				if err := tr.Update(live[i], o); err != nil {
					t.Fatalf("pool %d op %d: Update(%v, %v): %v", pages, step, live[i], o, err)
				}
				_ = oracle.Update(live[i], o)
				live[i] = o
			}
		case 4:
			for i := 0; i < int(c); i++ {
				insert(step, obj(next, a*7+byte(i)*37, b*13+byte(i)*101, c+byte(i)*29))
			}
		case 5:
			for i := 0; i < int(c) && len(live) > 0; i++ {
				remove(step, (pick+i*31)%len(live))
			}
		case 6:
			q := model.RangeQuery{
				Kind: model.QueryKind(c & 1), // time-slice or time-interval
				Rect: geom.RectFromCenter(geom.V(float64(a)*400+0.3, float64(b)*400+0.7), float64(c)*60+0.1, float64(c)*45+0.1),
				Now:  now, T0: now + float64(c>>5), T1: now + float64(c>>5) + float64(c>>1&15),
			}
			got, err := tr.Search(q)
			if err != nil {
				t.Fatalf("pool %d op %d: Search: %v", pages, step, err)
			}
			want, _ := oracle.Search(q)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("pool %d op %d: Search(%+v) = %v, oracle %v", pages, step, q, got, want)
			}
		case 7:
			q := model.KNNQuery{Center: geom.V(float64(a)*400, float64(b)*400), K: int(c&15) + 1, Now: now, T: now + float64(c>>4)}
			if q.K == 16 {
				q.K = math.MaxInt
			}
			// Ids and distances: objects share grid points, and of equidistant
			// ones the lower ids make the cut, as in the oracle.
			got, err := tr.SearchKNN(q)
			if err != nil {
				t.Fatalf("pool %d op %d: SearchKNN: %v", pages, step, err)
			}
			all, _ := oracle.SearchKNN(model.KNNQuery{Center: q.Center, K: math.MaxInt, Now: q.Now, T: q.T})
			if want := all[:min(q.K, len(all))]; !slices.Equal(got, want) {
				t.Fatalf("pool %d op %d: SearchKNN(%+v) = %v, oracle %v", pages, step, q, got, want)
			}
			if len(all) == 0 {
				break
			}
			// Bounded by some object's distance, so the bound is often a
			// distance several objects share: it is inclusive.
			bound := all[(pick+int(c))%len(all)].Dist
			if got, err = tr.SearchKNNWithin(q, bound); err != nil {
				t.Fatalf("pool %d op %d: SearchKNNWithin: %v", pages, step, err)
			}
			within := 0
			for within < len(all) && all[within].Dist <= bound {
				within++
			}
			if want := all[:min(q.K, within)]; !slices.Equal(got, want) {
				t.Fatalf("pool %d op %d: SearchKNNWithin(%+v, %g) = %v, oracle %v", pages, step, q, bound, got, want)
			}
		}
		if tr.Len() != oracle.Len() {
			t.Fatalf("pool %d op %d: Len %d, oracle %d", pages, step, tr.Len(), oracle.Len())
		}
		if step%64 == 63 {
			check(step)
		}
	}
	check(-1)
}
