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
// slot's scalars, the plan's folds used the builtin min and max and windows
// were cut per histogram cell: the paper-windows plan with math.Min and
// math.Max (refEnlargedWindow), then ScanMany handing
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

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// searchHistory builds a tree over a pool of the given size: 4,000 objects
// with road-like velocities inserted at times spread over [0, 70), then four
// rounds in which a third of them report at a later time, some at a new
// speed, so that three or four time buckets are live. One object in 20 lies
// outside the domain, up to 30 km beyond an edge, and eight lie at ±1e23 or
// ±1e300 m on one axis, so boundary cells hold clamped objects from near and
// from far. It returns the tree, its pool, the live records and the time of
// the last round.
func searchHistory(t *testing.T, seed int64, pages int, cfg Config) (*Tree, *storage.BufferPool, []model.Object, float64) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), pages)
	tr, err := NewTree(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	live := randomWorkload(4000, rng, 0)
	for i := range live {
		live[i].T = float64(i%100) * 0.7
		if i%20 == 3 {
			live[i].Pos = geom.V(rng.Float64()*160000-30000, rng.Float64()*160000-30000)
		}
	}
	for i, huge := range []float64{1e23, -1e23, 1e300, -1e300} {
		live[hugeAt[2*i]].Pos.X = huge
		live[hugeAt[2*i+1]].Pos.Y = huge
	}
	for i := range live {
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

// hugeAt are the indexes of searchHistory's objects at ±1e23 and ±1e300 m.
var hugeAt = [...]int{7, 57, 107, 157, 207, 257, 307, 357}

func poolAccesses(p *storage.BufferPool) int64 {
	s := p.Stats()
	return s.Hits + s.Misses
}

// candidates runs q as searchVisit does, with the leaf predicate wrapped to
// count the entries it is handed (tested) and the ones it accepts (kept).
func candidates(tb testing.TB, tr *Tree, q model.RangeQuery) (tested, kept int) {
	tb.Helper()
	var sc queryScratch
	tr.plan(q, &sc)
	m := model.NewMatcher(q)
	err := tr.bt.ScanFiltered(sc.ranges, func(pos, vel geom.Vec2, ref float64) bool {
		tested++
		return m.MatchesMotion(pos, vel, ref)
	}, func(bptree.Entry) bool { kept++; return true })
	if err != nil {
		tb.Fatal(err)
	}
	return tested, kept
}

// TestBxSearchEquivalence: SearchAppend answers 20,000 queries as the
// reference copy of the decoding search does, on two histories over pools of
// 3 and 68 frames, each built twice: once with the paper's windows and once
// with the per-cell cut. The queries cycle through the three kinds with
// circles and rectangles, centres in, around and far outside the domain, T0
// from now to now+120, intervals of up to 60 ts and of zero length; one in
// four puts an edge exactly through an object's position at T0 (a rectangle
// corner on it, a circle whose radius is its computed distance along one
// axis), the huge and the out-of-domain objects included. Both trees must
// return the reference's ids in the reference's order, and an object on the
// edge must be reported. The paper-windows tree must open exactly the
// reference's pages (pool accesses, hits + misses, equal per query); the cut
// only drops curve blocks, so the default tree must open no more. It logs the
// leaf candidates tested and kept per query on both.
func TestBxSearchEquivalence(t *testing.T) {
	const perTree = 5000
	type tally struct {
		pages, tested, kept int64
	}
	queries, hits, edges := 0, 0, 0
	var paper, cut tally
	for _, seed := range []int64{1, 2} {
		for _, poolPages := range []int{3, 68} {
			ptr, ppool, live, now := searchHistory(t, seed, poolPages, Config{PaperWindows: true})
			ctr, cpool, _, _ := searchHistory(t, seed, poolPages, Config{})
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
					if i%40 == 1 { // every huge object in turn
						edge = live[hugeAt[i/40%len(hugeAt)]]
					}
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
				for _, run := range []struct {
					tr   *Tree
					pool *storage.BufferPool
					tl   *tally
				}{{ptr, ppool, &paper}, {ctr, cpool, &cut}} {
					a0 := poolAccesses(run.pool)
					var err error
					if want, err = refSearchAppend(run.tr, want[:0], q); err != nil {
						t.Fatal(err)
					}
					a1 := poolAccesses(run.pool)
					if got, err = run.tr.SearchAppend(got[:0], q); err != nil {
						t.Fatal(err)
					}
					a2 := poolAccesses(run.pool)
					ref, mine := a1-a0, a2-a1
					if !slices.Equal(got, want) || mine > ref || (run.tr.cfg.PaperWindows && mine != ref) {
						t.Fatalf("seed %d, pool %d, query %d (%+v), paper windows %v: ids %v in %d pool accesses, reference %v in %d",
							seed, poolPages, i, q, run.tr.cfg.PaperWindows, got, mine, want, ref)
					}
					if i%4 == 1 && !slices.Contains(got, edge.ID) {
						t.Fatalf("seed %d, pool %d, query %d (%+v), paper windows %v: object %d on the region's edge at T0 not reported",
							seed, poolPages, i, q, run.tr.cfg.PaperWindows, edge.ID)
					}
					tested, kept := candidates(t, run.tr, q)
					run.tl.pages += mine
					run.tl.tested += int64(tested)
					run.tl.kept += int64(kept)
				}
				if i%4 == 1 {
					edges++
				}
				queries++
				hits += len(got)
			}
		}
	}
	per := func(v int64) float64 { return float64(v) / float64(queries) }
	t.Logf("%d queries identical to the reference, %.1f ids per query, %d with an object exactly on the edge", queries, float64(hits)/float64(queries), edges)
	t.Logf("paper windows: %.2f pool accesses, %.1f candidates tested and %.1f kept per query", per(paper.pages), per(paper.tested), per(paper.kept))
	t.Logf("per-cell cut:  %.2f pool accesses, %.1f candidates tested and %.1f kept per query", per(cut.pages), per(cut.tested), per(cut.kept))
}

// TestHugeCoordinates: objects at ±1e23 and ±1e300 m on either axis, where
// converting the position's float cell coordinate to an int overflows, are
// filed under the boundary histogram cell of their key's curve cell
// (CheckInvariants), and queries of each kind around each of them find it,
// with the paper's windows and with the per-cell cut.
func TestHugeCoordinates(t *testing.T) {
	for _, paper := range []bool{true, false} {
		tr, err := NewTree(storage.NewBufferPool(storage.NewMemStore(), 64), Config{PaperWindows: paper})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range randomWorkload(500, rand.New(rand.NewSource(5)), 0) {
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		var huge []model.Object
		for _, v := range []float64{1e23, -1e23, 1e300, -1e300} {
			for axis := 0; axis < 2; axis++ {
				o := model.Object{ID: model.ObjectID(10000 + len(huge)), Pos: geom.V(50000, 50000), Vel: geom.V(3, -4)}
				if axis == 0 {
					o.Pos.X = v
				} else {
					o.Pos.Y = v
				}
				if err := tr.Insert(o); err != nil {
					t.Fatal(err)
				}
				huge = append(huge, o)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, o := range huge {
			half := 1e-9*max(math.Abs(o.Pos.X), math.Abs(o.Pos.Y)) + 10
			for kind := model.TimeSlice; kind <= model.MovingRange; kind++ {
				q := model.RangeQuery{Kind: kind, Rect: geom.RectFromCenter(o.Pos, half, half), T1: 30, Vel: geom.V(1, 1)}
				c := q
				c.Circle = geom.Circle{C: o.Pos, R: half}
				c.Rect = c.Circle.Bound()
				for _, q := range []model.RangeQuery{q, c} {
					ids, err := tr.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Contains(ids, o.ID) {
						t.Errorf("paper windows %v: %v not found by %+v", paper, o, q)
					}
				}
			}
		}
	}
}

// TestBlockCellsMatchCurve: every cell of the curve grid lies in the block
// whose histogram cell, by blockCells, is the grid cell >> histogramShift on
// each axis — the per-cell cut reads a block's velocity bounds from it.
func TestBlockCellsMatchCurve(t *testing.T) {
	c := sfc.MustHilbert(gridOrder)
	for x := uint32(0); x < 1<<gridOrder; x++ {
		for y := uint32(0); y < 1<<gridOrder; y++ {
			got := int(blockCells[c.Encode(x, y)>>blockBits])
			if want := int(y>>histogramShift)*histogramCells + int(x>>histogramShift); got != want {
				t.Fatalf("cell (%d, %d): block maps to histogram cell %d, want %d", x, y, got, want)
			}
		}
	}
}

// TestCellEdgesExact: the cut's tabulated cell edges agree with cellOf on
// every edge and its float64 neighbour below, and on random coordinates in
// and far outside the domain, for the default domain and for domains offset
// far from the origin, tiny and huge.
func TestCellEdgesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range []geom.Rect{{}, geom.R(-3e5, 1e9, -1e5, 1e9+7), geom.R(1e-150, -1e-150, 3e-150, 1e-150), geom.R(-1e300, -1e300, 1e300, 1e300)} {
		tr, err := NewTree(storage.NewBufferPool(storage.NewMemStore(), 8), Config{Domain: d})
		if err != nil {
			t.Fatal(err)
		}
		d := tr.cfg.Domain
		for _, ax := range []struct {
			edge   *[1 << gridOrder]float64
			cell   func(float64) uint32
			lo, hi float64
		}{{&tr.edgeX, tr.cellX, d.MinX, d.MaxX}, {&tr.edgeY, tr.cellY, d.MinY, d.MaxY}} {
			for k := uint32(1); k < uint32(len(ax.edge)); k++ {
				e := ax.edge[k]
				if ax.cell(e) < k || ax.cell(math.Nextafter(e, math.Inf(-1))) >= k {
					t.Fatalf("domain %v: edge %d = %v maps to %d, the float below it to %d", d, k, e, ax.cell(e), ax.cell(math.Nextafter(e, math.Inf(-1))))
				}
			}
			for i := 0; i < 20000; i++ {
				v := ax.lo + (ax.hi-ax.lo)*(rng.Float64()*1.2-0.1)
				if i%10 == 0 {
					v = math.Ldexp(rng.NormFloat64(), rng.Intn(2000)-1000)
				}
				k := 1 + uint32(rng.Intn(len(ax.edge)-1))
				if (ax.cell(v) >= k) != (v >= ax.edge[k]) {
					t.Fatalf("domain %v: %v maps to %d, edge %d is %v", d, v, ax.cell(v), k, ax.edge[k])
				}
			}
		}
	}
}
