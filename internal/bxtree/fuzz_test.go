package bxtree

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
// model.BruteForce, with the paper's windows and with the per-cell cut, over
// a pool of 3 frames (every page round-trips through eviction) and of 30.
// Each operation is four bytes — opcode, two position bytes, an argument —
// and the opcodes cover single insert/delete/update, runs of up to 255
// inserts or deletes, an insert far outside the domain (±1e23 or ±1e300 m on
// one axis), a range query of each kind with a rectangle or a circle, and a
// kNN — K up to 15 or math.MaxInt, unbounded and then bounded by some
// object's distance — checked id for id against the oracle's sorted list.
// Positions run from 7.68 km before the domain's low edges to 14.72 km past
// its high ones, in multiples of 480 m; velocities and times are multiples
// of 12 m/ts and 0.25 ts, so every product is exact and a disagreement with
// the oracle is the tree's, not rounding's; windows sit off that grid so no
// trajectory grazes one. CheckInvariants runs every 64 operations.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 10, 10, 0x9c, 0, 200, 40, 0x37, 6, 10, 10, 50, 3, 0, 0, 0x11, 7, 12, 9, 3, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	// Objects clamped into the boundary cells from just outside the domain,
	// from 1e23 and from 1e300 m away, then windows and kNN over them.
	f.Add([]byte{0, 2, 100, 0x88, 0, 250, 100, 0x9c, 0, 100, 1, 0x37, 0, 100, 254, 0x11,
		8, 0, 100, 0x00, 8, 1, 100, 0x01, 8, 2, 100, 0x02, 8, 3, 100, 0x03,
		6, 250, 100, 0x40, 6, 2, 100, 0x45, 6, 100, 254, 0x2e, 7, 250, 100, 0x3f, 7, 0, 0, 0x0f})
	var grow, drain []byte
	for i := 0; i < 12; i++ { // 12 runs of 255 objects: height 2
		grow = append(grow, 4, byte(i*11), byte(i*29), 255)
		drain = append(drain, 5, byte(i), 0, 255)
	}
	f.Add(grow)
	f.Add(slices.Concat(grow, []byte{6, 100, 100, 90, 8, 7, 7, 7, 7, 30, 200, 15, 6, 7, 250, 0xff, 3, 1, 2, 3}, drain, []byte{7, 0, 0, 4, 6, 0, 0, 255}))

	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, paper := range []bool{true, false} {
			for _, pages := range []int{3, 30} {
				fuzzRun(t, ops, pages, paper)
			}
		}
	})
}

func fuzzRun(t *testing.T, ops []byte, pages int, paper bool) {
	tr, err := NewTree(storage.NewBufferPool(storage.NewMemStore(), pages), Config{PaperWindows: paper})
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.NewBruteForce()
	var live []model.Object
	next := model.ObjectID(1)
	now := 0.0
	at := func(a byte) float64 { return float64(int(a)-16) * 480 }
	obj := func(id model.ObjectID, a, b, c byte) model.Object {
		return model.Object{
			ID:  id,
			Pos: geom.V(at(a), at(b)),
			Vel: geom.V(float64(int(c&15)-8)*12, float64(int(c>>4)-8)*12),
			T:   now,
		}
	}
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("paper windows %v, pool %d, op %d: "+format, append([]any{paper, pages, step}, args...)...)
	}
	insert := func(step int, o model.Object) {
		if err := tr.Insert(o); err != nil {
			fail(step, "Insert(%v): %v", o, err)
		}
		_ = oracle.Insert(o)
		live = append(live, o)
		next++
	}
	remove := func(step, i int) {
		o := live[i]
		if err := tr.Delete(o); err != nil {
			fail(step, "Delete(%v): %v", o, err)
		}
		_ = oracle.Delete(o)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	check := func(step int) {
		if err := tr.CheckInvariants(); err != nil {
			fail(step, "%v", err)
		}
	}
	for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
		now += 0.25
		a, b, c := ops[1], ops[2], ops[3]
		pick := (int(a)<<8 | int(b))
		switch ops[0] % 9 {
		case 0, 1:
			insert(step, obj(next, a, b, c))
		case 2:
			if len(live) > 0 {
				remove(step, pick%len(live))
			} else if err := tr.Delete(obj(next, a, b, c)); err != model.ErrNotFound {
				fail(step, "Delete on an empty tree: %v", err)
			}
		case 3:
			if len(live) > 0 {
				i := pick % len(live)
				o := obj(live[i].ID, a^b, b^c, c)
				if err := tr.Update(live[i], o); err != nil {
					fail(step, "Update(%v, %v): %v", live[i], o, err)
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
				Kind: model.QueryKind(c % 3),
				Rect: geom.RectFromCenter(geom.V(at(a)+0.3, at(b)+0.7), float64(c)*60+0.1, float64(c)*45+0.1),
				Vel:  geom.V(float64(int(b&15)-8)*12, float64(int(a&15)-8)*12),
				Now:  now, T0: now + float64(c>>5), T1: now + float64(c>>5) + float64(c>>1&15),
			}
			if c&8 != 0 {
				q.Circle = geom.Circle{C: geom.V(at(a)+0.3, at(b)+0.7), R: float64(c)*60 + 0.1}
				q.Rect = q.Circle.Bound()
			}
			got, err := tr.Search(q)
			if err != nil {
				fail(step, "Search: %v", err)
			}
			want, _ := oracle.Search(q)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				fail(step, "Search(%+v) = %v, oracle %v", q, got, want)
			}
		case 7:
			q := model.KNNQuery{Center: geom.V(at(a), at(b)), K: int(c&15) + 1, Now: now, T: now + float64(c>>4)}
			if q.K == 16 {
				q.K = math.MaxInt
			}
			// Ids and distances: objects share grid points, and of equidistant
			// ones the lower ids make the cut, as in the oracle.
			got, err := tr.SearchKNN(q)
			if err != nil {
				fail(step, "SearchKNN: %v", err)
			}
			all, _ := oracle.SearchKNN(model.KNNQuery{Center: q.Center, K: math.MaxInt, Now: q.Now, T: q.T})
			if want := all[:min(q.K, len(all))]; !slices.Equal(got, want) {
				fail(step, "SearchKNN(%+v) = %v, oracle %v", q, got, want)
			}
			if len(all) == 0 {
				break
			}
			// Bounded by some object's distance, so the bound is often a
			// distance several objects share: it is inclusive.
			bound := all[(pick+int(c))%len(all)].Dist
			if got, err = tr.SearchKNNWithin(q, bound); err != nil {
				fail(step, "SearchKNNWithin: %v", err)
			}
			within := 0
			for within < len(all) && all[within].Dist <= bound {
				within++
			}
			if want := all[:min(q.K, within)]; !slices.Equal(got, want) {
				fail(step, "SearchKNNWithin(%+v, %g) = %v, oracle %v", q, bound, got, want)
			}
		case 8:
			// Far outside the domain: ±1e23 or ±1e300 m on one axis.
			o := obj(next, a, b, c)
			far := []float64{1e23, -1e23, 1e300, -1e300}[a&3]
			if a&4 == 0 {
				o.Pos.X = far
			} else {
				o.Pos.Y = far
			}
			insert(step, o)
		}
		if tr.Len() != oracle.Len() {
			fail(step, "Len %d, oracle %d", tr.Len(), oracle.Len())
		}
		if step%64 == 63 {
			check(step)
		}
	}
	check(-1)
}
