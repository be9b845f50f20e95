package tprtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// refSearchAppend is SearchAppend as it was before it tested slots from the
// page bytes: every internal entry decoded into a geom.MovingRect and tested
// with IntersectsDuring, every leaf slot decoded into a model.Object and
// refined by the query's model.Matcher.
func refSearchAppend(t *Tree, out []model.ObjectID, q model.RangeQuery) ([]model.ObjectID, error) {
	qmr := q.AsMovingRect()
	t0, t1 := q.T0, q.EndTime()
	m := model.NewMatcher(q)
	stack := []pageRef{{id: t.root, level: t.height - 1}}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := t.view(top.id, top.level, func(data []byte, count int) {
			for i := 0; i < count; i++ {
				if top.level == 0 {
					if o := getObj(leafSlot(data, i)); m.Matches(o) {
						out = append(out, o.ID)
					}
				} else if s := entrySlot(data, i); getMR(s).IntersectsDuring(qmr, t0, t1) {
					stack = append(stack, pageRef{id: getChild(s), level: top.level - 1})
				}
			}
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestSearchEquivalence: SearchAppend answers 20,000 queries exactly as the
// reference copy of the decoding search, on knnHistory's uniform and skewed
// trees over pools of 3 and 68 frames. The queries cycle through the three
// kinds with circles and rectangles, centres in, around and far outside the
// domain, T0 from now to now+120, intervals of up to 60 ts and of zero
// length; one in four puts an edge exactly through an object's position at
// T0 (a rectangle side on its coordinate, a circle whose radius is its
// computed distance along one axis, so the leaf test sits at exactly 0).
// Ids must be the same and in the same order, each query must cost the same
// pool accesses (hits + misses) — the same pages are opened — and an object
// on the edge must be reported.
func TestSearchEquivalence(t *testing.T) {
	const perTree = 5000
	queries, hits, edges, pages := 0, 0, 0, int64(0)
	for _, tc := range []struct {
		seed int64
		skew bool
	}{{1, false}, {2, true}} {
		for _, poolPages := range []int{3, 68} {
			tr, pool, live := knnHistory(t, tc.seed, tc.skew, poolPages)
			rng := rand.New(rand.NewSource(tc.seed * 200))
			now := tr.clock
			var got, want []model.ObjectID
			for i := 0; i < perTree; i++ {
				q := model.RangeQuery{Kind: model.QueryKind(i % 3), Now: now, T0: now + rng.Float64()*120}
				if i%11 == 0 {
					q.T0 = now
				}
				q.T1 = q.T0 + rng.Float64()*60
				if i%7 == 0 {
					q.T1 = q.T0
				}
				if q.Kind == model.MovingRange {
					q.Vel = geom.V(rng.Float64()*200-100, rng.Float64()*200-100)
				}
				c := geom.V(rng.Float64()*130000-15000, rng.Float64()*130000-15000)
				if i%13 == 0 {
					c = geom.V(-1e6+rng.Float64()*2e6, -1e6+rng.Float64()*2e6) // mostly far outside
				}
				var edge model.Object
				if i%4 == 1 {
					edge = live[rng.Intn(len(live))]
					c = edge.PosAt(q.T0)
				}
				ext := rng.Float64() * 4000
				if (i/3)%2 == 0 {
					q.Circle = geom.Circle{C: c, R: ext + 1}
					if i%4 == 1 { // the centre ext+1 to the left: the object sits on the circle
						q.Circle.C.X -= ext + 1
						q.Circle.R = c.X - q.Circle.C.X
					}
					q.Rect = q.Circle.Bound()
				} else {
					q.Rect = geom.RectFromCenter(c, ext/2+1, rng.Float64()*2000+1)
					if i%4 == 1 { // the object's position is the lower-left corner
						q.Rect.MinX, q.Rect.MinY = c.X, c.Y
					}
				}
				if err := q.Validate(); err != nil {
					t.Fatal(err)
				}
				a0 := accesses(pool)
				var err error
				if want, err = refSearchAppend(tr, want[:0], q); err != nil {
					t.Fatal(err)
				}
				a1 := accesses(pool)
				if got, err = tr.SearchAppend(got[:0], q); err != nil {
					t.Fatal(err)
				}
				a2 := accesses(pool)
				if a2-a1 != a1-a0 || !slices.Equal(got, want) {
					t.Fatalf("seed %d, pool %d, query %d (%+v): ids %v in %d pool accesses, reference %v in %d",
						tc.seed, poolPages, i, q, got, a2-a1, want, a1-a0)
				}
				if i%4 == 1 {
					if !slices.Contains(got, edge.ID) {
						t.Fatalf("seed %d, pool %d, query %d (%+v): object %d on the region's edge at T0 not reported", tc.seed, poolPages, i, q, edge.ID)
					}
					edges++
				}
				queries++
				hits += len(got)
				pages += a2 - a1
			}
		}
	}
	t.Logf("%d queries identical to the reference: %.1f ids and %.1f pool accesses per query, %d with an object exactly on the edge",
		queries, float64(hits)/float64(queries), float64(pages)/float64(queries), edges)
}

// TestSearchAppendDoesNotAllocate: on a cached tree, a search into a
// recycled result slice allocates nothing, for each query kind.
func TestSearchAppendDoesNotAllocate(t *testing.T) {
	tr, _, live := knnHistory(t, 1, false, 1024)
	now := tr.clock
	c := live[0].PosAt(now + 30)
	disk := geom.Circle{C: c, R: 3000}
	for _, q := range []model.RangeQuery{
		{Kind: model.TimeSlice, Circle: disk, Rect: disk.Bound(), Now: now, T0: now + 30},
		{Kind: model.TimeInterval, Rect: geom.RectFromCenter(c, 3000, 3000), Now: now, T0: now + 30, T1: now + 60},
		{Kind: model.MovingRange, Rect: geom.RectFromCenter(c, 3000, 3000), Vel: geom.V(40, -30), Now: now, T0: now + 30, T1: now + 60},
	} {
		dst, err := tr.SearchAppend(nil, q)
		if err != nil || len(dst) == 0 {
			t.Fatalf("%v: %d ids, %v; want some", q.Kind, len(dst), err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if dst, err = tr.SearchAppend(dst[:0], q); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%v search into a recycled slice allocated %.1f times per run, want 0", q.Kind, allocs)
		}
	}
}

// FuzzSlotPredicates: SearchAppend's slot tests agree with the functions they
// replicate for arbitrary float bit patterns — NaN, ±Inf, ±0, subnormals,
// inverted intervals, a zero or negative radius. entry is the 80 bytes of an
// internal slot and leaf the 48 of a leaf slot (zero-padded or cut), query
// eleven float64s (Rect, Circle.C, Circle.R, Vel, T0, T1) of the kind
// kind%3. entryHit must equal getMR(entry).IntersectsDuring(q.AsMovingRect(),
// q.T0, q.EndTime()), and again with the interval's end set to the raw T1
// (which may precede T0); appendHits on a page holding only leaf must report
// its id exactly when model.NewMatcher(q).Matches(getObj(leaf)).
func FuzzSlotPredicates(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	neg0, sub := math.Copysign(0, -1), 5e-324
	entry := func(mbr, vbr geom.Rect, ref float64) []byte {
		s := make([]byte, internalEntrySize)
		putMR(s, geom.MovingRect{MBR: mbr, VBR: vbr, Ref: ref})
		return s
	}
	leaf := func(x, y, vx, vy, t float64) []byte {
		s := make([]byte, leafEntrySize)
		putObj(s, model.Object{ID: 7, Pos: geom.V(x, y), Vel: geom.V(vx, vy), T: t})
		return s
	}
	query := func(fs ...float64) []byte { // Rect, Circle.C, Circle.R, Vel, T0, T1
		b := make([]byte, 8*len(fs))
		for i, v := range fs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	node := entry(geom.R(1000, 1000, 3000, 2000), geom.Rect{MinX: -50, MinY: -20, MaxX: 40, MaxY: 60}, 10)
	point := leaf(1500, 1200, 30, -40, 12)
	for _, s := range []struct {
		kind        uint8
		entry, leaf []byte
		query       []byte
	}{
		// Ordinary shapes: a slice circle, an interval rectangle, a moving one.
		{0, node, point, query(0, 0, 0, 0, 1500, 1300, 400, 0, 0, 20, 20)},
		{1, node, point, query(900, 900, 1400, 1100, 0, 0, 0, 0, 0, 20, 50)},
		{2, node, point, query(900, 900, 1400, 1100, 0, 0, 0, 25, -10, 20, 50)},
		{1, node, point, query(900, 900, 1400, 1100, 1200, 1000, 300, 0, 0, 20, 50)},
		// The record exactly on the circle at T0, where it is at (1740, 880).
		{0, node, point, query(0, 0, 0, 0, 1740, 1480, 600, 0, 0, 20, 20)},
		{0, node, point, query(0, 0, 0, 0, 1140, 880, 600, 0, 0, 20, 20)},
		// A rectangle edge on the point, and a degenerate rectangle.
		{1, node, point, query(1740, 880, 1800, 900, 0, 0, 0, 0, 0, 20, 20)},
		{2, node, point, query(1740, 880, 1740, 880, 0, 0, 0, 0, 0, 20, 30)},
		// R = 0 and a negative radius take the rectangle test; t1 < t0.
		{0, node, point, query(0, 0, 0, 0, 1500, 1300, 0, 0, 0, 20, 10)},
		{2, node, point, query(900, 900, 1400, 1100, 1500, 1300, -5, 10, 10, 20, 10)},
		// Non-finite and signed-zero fields in the query, the entry and the record.
		{0, node, point, query(0, 0, 0, 0, 1500, 1300, 400, 0, 0, nan, nan)},
		{1, node, point, query(nan, 900, 1400, 1100, 0, 0, 0, 0, 0, 20, 50)},
		{2, node, point, query(900, 900, 1400, 1100, 0, 0, 0, inf, -inf, 20, 50)},
		{1, node, point, query(-inf, -inf, inf, inf, 0, 0, 0, 0, 0, 20, inf)},
		{2, node, point, query(neg0, neg0, 0, 0, 0, 0, 0, neg0, 0, neg0, 0)},
		{0, node, point, query(0, 0, 0, 0, 1500, 1300, inf, 0, 0, -inf, 0)},
		{1, entry(geom.R(nan, 0, 1, 1), geom.Rect{}, 0), leaf(nan, 0, 0, 0, 0), query(0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1)},
		{2, entry(geom.Rect{MinX: 5, MinY: 5, MaxX: 1, MaxY: 1}, geom.Rect{MinX: inf, MaxX: -inf}, 0), leaf(0, 0, inf, -inf, 0), query(0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1)},
		{0, entry(geom.R(neg0, neg0, 0, 0), geom.Rect{MinX: neg0, MinY: neg0}, neg0), leaf(neg0, neg0, neg0, 0, neg0), query(0, 0, 0, 0, 0, 0, 0, 0, 0, neg0, 0)},
		{1, entry(geom.R(sub, sub, 2*sub, 2*sub), geom.Rect{MinX: -sub, MaxX: sub}, sub), leaf(sub, -sub, sub, sub, 0), query(0, 0, sub, sub, 0, 0, 0, 0, 0, 0, sub)},
		{0, entry(geom.R(0, 0, 1, 1), geom.Rect{}, inf), leaf(1, 1, 0, 0, inf), query(0, 0, 0, 0, 1, 1, sub, 0, 0, inf, inf)},
		{2, entry(geom.R(-1e300, -1e300, 1e300, 1e300), geom.Rect{MinX: -1e300, MinY: -1e300, MaxX: 1e300, MaxY: 1e300}, 0), leaf(1e300, 1e300, -1e300, 1e300, -1e10), query(-1e300, -1e300, 1e300, 1e300, 0, 0, 0, 1e300, -1e300, 1e10, 1e300)},
		// At T0 = +Inf, rebasing by t0−t0 = NaN makes the query rectangle NaN.
		{2, node, leaf(0, 0, 1, 1, 0), query(0, 0, 1, 1, 0, 0, 0, 1, 1, inf, inf)},
		// Short inputs are zero-padded.
		{0, nil, nil, nil},
	} {
		f.Add(s.kind, s.entry, s.leaf, s.query)
	}

	f.Fuzz(func(t *testing.T, kind uint8, entryBytes, leafBytes, queryBytes []byte) {
		var e [internalEntrySize]byte
		var page [nodeHeader + leafEntrySize]byte // a leaf page of one record
		var qf [11]float64
		copy(e[:], entryBytes)
		copy(page[nodeHeader:], leafBytes)
		l := leafSlot(page[:], 0)
		for i := range qf {
			if len(queryBytes) >= 8*(i+1) {
				qf[i] = math.Float64frombits(binary.LittleEndian.Uint64(queryBytes[8*i:]))
			}
		}
		q := model.RangeQuery{
			Kind:   model.QueryKind(kind % 3),
			Rect:   geom.Rect{MinX: qf[0], MinY: qf[1], MaxX: qf[2], MaxY: qf[3]},
			Circle: geom.Circle{C: geom.V(qf[4], qf[5]), R: qf[6]},
			Vel:    geom.V(qf[7], qf[8]),
			T0:     qf[9], T1: qf[10],
		}
		where := func() string {
			return fmt.Sprintf("query %+v, entry %v, record %v", q, getMR(e[:]), getObj(l))
		}
		p := newRangeProbe(q)
		if got, want := p.entryHit(e[:]), getMR(e[:]).IntersectsDuring(q.AsMovingRect(), q.T0, q.EndTime()); got != want {
			t.Fatalf("%s: entryHit %v, IntersectsDuring %v", where(), got, want)
		}
		m := model.NewMatcher(q)
		hits := p.appendHits(nil, page[:], 1)
		if got, want := len(hits) == 1, m.Matches(getObj(l)); got != want || (got && hits[0] != getID(l)) {
			t.Fatalf("%s: appendHits %v, Matches %v", where(), hits, want)
		}
		p.t1 = q.T1
		if got, want := p.entryHit(e[:]), getMR(e[:]).IntersectsDuring(q.AsMovingRect(), q.T0, q.T1); got != want {
			t.Fatalf("%s, interval end %g: entryHit %v, IntersectsDuring %v", where(), q.T1, got, want)
		}
	})
}
