package bxtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bptree"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/sfc"
	"repro/internal/storage"
)

// refSearchAppend is SearchAppend as it was before the leaf filter ran on the
// slot's scalars and the plan's folds used the builtin min and max: the same
// plan with math.Min and math.Max (refEnlargedWindow), then ScanMany handing
// every in-range entry over decoded, refined by the query's model.Matcher on
// the decoded Object. AppendWindow and MergeIntervals are held to their own
// reference copies by sfc's TestAppendWindowEquivalence.
func refSearchAppend(t *Tree, dst []model.ObjectID, q model.RangeQuery) ([]model.ObjectID, error) {
	var ranges []bptree.ScanRange
	var ivs []sfc.Interval
	for _, b := range t.buckets {
		w := refEnlargedWindow(b, q)
		if w.IsEmpty() {
			continue
		}
		x0, y0 := t.cellOf(geom.V(w.MinX, w.MinY))
		x1, y1 := t.cellOf(geom.V(w.MaxX, w.MaxY))
		ivs = t.curve.AppendWindow(ivs[:0], x0, y0, x1, y1)
		prefix := uint64(b.idx) << (2 * gridOrder)
		for _, iv := range sfc.MergeIntervals(ivs, maxScanRanges) {
			ranges = append(ranges, bptree.ScanRange{Lo: prefix + iv.Lo, Hi: prefix + iv.Hi})
		}
	}
	m := model.NewMatcher(q)
	err := t.bt.ScanMany(ranges, func(e bptree.Entry) bool {
		if m.Matches(e.Object()) {
			dst = append(dst, e.Key.ID)
		}
		return true
	})
	return dst, err
}

func refEnlargedWindow(b *bucket, q model.RangeQuery) geom.Rect {
	r0 := q.Region()
	r1 := r0
	if q.Kind == model.MovingRange {
		r1 = r0.Translate(q.Vel.Scale(q.EndTime() - q.T0))
	}
	dt0, dt1 := q.T0-b.ref, q.EndTime()-b.ref
	if b.hist.total == 0 {
		return geom.EmptyRect()
	}
	enlarge := func(vmin, vmax geom.Vec2) geom.Rect {
		return refEnlargeForGap(r0, vmin, vmax, dt0).Union(refEnlargeForGap(r1, vmin, vmax, dt1))
	}
	w := enlarge(b.hist.gMin, b.hist.gMax)
	for round := 0; round < expansionRounds; round++ {
		vmin, vmax, ok := refRange(b.hist, w)
		if !ok {
			return geom.EmptyRect()
		}
		next := enlarge(vmin, vmax).Intersect(w)
		if next.IsEmpty() {
			return geom.EmptyRect()
		}
		if w.ContainsRect(next) && next.ContainsRect(w) {
			break
		}
		w = next
	}
	return w
}

func refEnlargeForGap(r geom.Rect, vmin, vmax geom.Vec2, dt float64) geom.Rect {
	ax0, ax1 := vmin.X*dt, vmax.X*dt
	ay0, ay1 := vmin.Y*dt, vmax.Y*dt
	return geom.Rect{
		MinX: r.MinX - math.Max(ax0, ax1),
		MaxX: r.MaxX - math.Min(ax0, ax1),
		MinY: r.MinY - math.Max(ay0, ay1),
		MaxY: r.MaxY - math.Min(ay0, ay1),
	}
}

// refRange is velocityHistogram.Range as it was: occupied cells only, the
// first one's bounds taken as they are, the rest folded with math.Min and
// math.Max.
func refRange(h *velocityHistogram, r geom.Rect) (vmin, vmax geom.Vec2, ok bool) {
	if h.total == 0 {
		return geom.Vec2{}, geom.Vec2{}, false
	}
	clipped := r.Intersect(h.domain)
	if clipped.IsEmpty() {
		return h.gMin, h.gMax, true
	}
	x0 := clampInt(int((clipped.MinX-h.domain.MinX)/h.domain.Width()*float64(h.cells)), 0, h.cells-1)
	x1 := clampInt(int((clipped.MaxX-h.domain.MinX)/h.domain.Width()*float64(h.cells)), 0, h.cells-1)
	y0 := clampInt(int((clipped.MinY-h.domain.MinY)/h.domain.Height()*float64(h.cells)), 0, h.cells-1)
	y1 := clampInt(int((clipped.MaxY-h.domain.MinY)/h.domain.Height()*float64(h.cells)), 0, h.cells-1)
	found := false
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			c := h.vel[cy*h.cells+cx]
			if c == emptyCell {
				continue
			}
			if !found {
				vmin, vmax, found = c.min, c.max, true
				continue
			}
			vmin.X = math.Min(vmin.X, c.min.X)
			vmin.Y = math.Min(vmin.Y, c.min.Y)
			vmax.X = math.Max(vmax.X, c.max.X)
			vmax.Y = math.Max(vmax.Y, c.max.Y)
		}
	}
	if !found {
		return h.gMin, h.gMax, true
	}
	return vmin, vmax, true
}

// searchHistory builds a tree over a pool of the given size: 4,000 objects
// with road-like velocities inserted at times spread over [0, 70), then four
// rounds in which a third of them report at a later time, some at a new
// speed, so that three or four time buckets are live. It returns the tree,
// its pool, the live records and the time of the last round.
func searchHistory(t *testing.T, seed int64, pages int) (*Tree, *storage.BufferPool, []model.Object, float64) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), pages)
	tr, err := NewTree(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	live := randomWorkload(4000, rng, 0)
	for i := range live {
		live[i].T = float64(i%100) * 0.7
		if err := tr.Insert(live[i]); err != nil {
			t.Fatal(err)
		}
	}
	now := 70.0
	for round := 1; round <= 4; round++ {
		now += 20
		for i := range live {
			if rng.Intn(3) != 0 {
				continue
			}
			upd := live[i]
			upd.Pos, upd.T = upd.PosAt(now), now
			if rng.Intn(4) == 0 {
				upd.Vel = geom.V(rng.Float64()*200-100, rng.Float64()*200-100)
			}
			if err := tr.Update(live[i], upd); err != nil {
				t.Fatal(err)
			}
			live[i] = upd
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr, pool, live, now
}

func poolAccesses(p *storage.BufferPool) int64 {
	s := p.Stats()
	return s.Hits + s.Misses
}

// TestBxSearchEquivalence: SearchAppend answers 20,000 queries exactly as the
// reference copy of the decoding search, on two histories over pools of 3
// and 68 frames. The queries cycle through the three kinds with circles and
// rectangles, centres in, around and far outside the domain, T0 from now to
// now+120, intervals of up to 60 ts and of zero length; one in four puts an
// edge exactly through an object's position at T0 (a rectangle corner on it,
// a circle whose radius is its computed distance along one axis). Ids must be
// the same and in the same order, each query must cost the same pool
// accesses (hits + misses) — the same pages are opened — and an object on the
// edge must be reported.
func TestBxSearchEquivalence(t *testing.T) {
	const perTree = 5000
	queries, hits, edges, pages := 0, 0, 0, int64(0)
	for _, seed := range []int64{1, 2} {
		for _, poolPages := range []int{3, 68} {
			tr, pool, live, now := searchHistory(t, seed, poolPages)
			rng := rand.New(rand.NewSource(seed * 100))
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
				a0 := poolAccesses(pool)
				var err error
				if want, err = refSearchAppend(tr, want[:0], q); err != nil {
					t.Fatal(err)
				}
				a1 := poolAccesses(pool)
				if got, err = tr.SearchAppend(got[:0], q); err != nil {
					t.Fatal(err)
				}
				a2 := poolAccesses(pool)
				if a2-a1 != a1-a0 || !slices.Equal(got, want) {
					t.Fatalf("seed %d, pool %d, query %d (%+v): ids %v in %d pool accesses, reference %v in %d",
						seed, poolPages, i, q, got, a2-a1, want, a1-a0)
				}
				if i%4 == 1 {
					if !slices.Contains(got, edge.ID) {
						t.Fatalf("seed %d, pool %d, query %d (%+v): object %d on the region's edge at T0 not reported", seed, poolPages, i, q, edge.ID)
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
