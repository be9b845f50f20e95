package bxtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

func newTestTree(t *testing.T, bufferPages int, cfg Config) *Tree {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), bufferPages)
	tr, err := NewTree(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randomWorkload(n int, rng *rand.Rand, tref float64) []model.Object {
	objs := make([]model.Object, n)
	for i := range objs {
		speed := rng.Float64() * 100
		if rng.Intn(2) == 0 {
			speed = -speed
		}
		var vel geom.Vec2
		if rng.Intn(2) == 0 {
			vel = geom.V(speed, rng.NormFloat64()*2)
		} else {
			vel = geom.V(rng.NormFloat64()*2, speed)
		}
		objs[i] = model.Object{
			ID:  model.ObjectID(i + 1),
			Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: vel,
			T:   tref,
		}
	}
	return objs
}

func sameIDs(t *testing.T, got, want []model.ObjectID, context string) {
	t.Helper()
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", context, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d differs: %d vs %d", context, i, got[i], want[i])
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxUpdateInterval != 120 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.Domain != geom.R(0, 0, 100000, 100000) {
		t.Fatalf("default domain: %v", c.Domain)
	}
	if gridOrder != 8 || timeBuckets != 2 || histogramCells != 64 || maxScanRanges != 16 || expansionRounds != 4 {
		t.Fatalf("settings: grid order %d, %d buckets, %d histogram cells, %d scan ranges, %d expansion rounds",
			gridOrder, timeBuckets, histogramCells, maxScanRanges, expansionRounds)
	}
	if tr := newTestTree(t, 10, Config{}); tr.curve.Size() != 256 || tr.bucketWidth != 60 {
		t.Fatalf("grid side %d, bucket width %g; want 256 and 60", tr.curve.Size(), tr.bucketWidth)
	}
}

func TestBoundaryIndexing(t *testing.T) {
	tr := newTestTree(t, 50, Config{}) // bucket width = 60
	cases := []struct {
		tm  float64
		idx int64
	}{
		{0, 0}, {0.1, 1}, {59.9, 1}, {60, 1}, {60.1, 2}, {120, 2}, {121, 3},
	}
	for _, c := range cases {
		if got := tr.boundaryIndex(c.tm); got != c.idx {
			t.Fatalf("boundaryIndex(%g) = %d, want %d", c.tm, got, c.idx)
		}
	}
	if tr.refTime(2) != 120 {
		t.Fatalf("refTime(2) = %g", tr.refTime(2))
	}
}

func TestInsertSearchSingle(t *testing.T) {
	tr := newTestTree(t, 50, Config{})
	o := model.Object{ID: 1, Pos: geom.V(500, 500), Vel: geom.V(10, 0), T: 0}
	if err := tr.Insert(o); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.ActiveBuckets() != 1 {
		t.Fatalf("len=%d buckets=%d", tr.Len(), tr.ActiveBuckets())
	}
	hit, err := tr.Search(model.RangeQuery{
		Kind: model.TimeSlice, Rect: geom.R(900, 400, 1100, 600), Now: 0, T0: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hit) != 1 || hit[0] != 1 {
		t.Fatalf("hit = %v", hit)
	}
	miss, err := tr.Search(model.RangeQuery{
		Kind: model.TimeSlice, Rect: geom.R(0, 0, 100, 100), Now: 0, T0: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(miss) != 0 {
		t.Fatalf("miss = %v", miss)
	}
}

func TestBulkAgainstOracleAllQueryKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := newTestTree(t, 200, Config{})
	oracle := model.NewBruteForce()
	// Spread insert times over one bucket width so two buckets go live.
	objs := randomWorkload(3000, rng, 0)
	for i, o := range objs {
		o.T = float64(i%100) * 0.7 // 0..69.3
		o.Pos = o.PosAt(o.T)       // keep record self-consistent
		o.T = float64(i%100) * 0.7
		objs[i] = o
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if tr.ActiveBuckets() < 2 {
		t.Fatalf("expected >=2 active buckets, got %d", tr.ActiveBuckets())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		c := geom.V(rng.Float64()*100000, rng.Float64()*100000)
		t0 := 70 + rng.Float64()*60
		t1 := t0 + rng.Float64()*60
		queries := []model.RangeQuery{
			{Kind: model.TimeSlice, Rect: geom.RectFromCenter(c, 3000, 3000), Now: 70, T0: t0},
			{Kind: model.TimeInterval, Rect: geom.RectFromCenter(c, 2000, 2000), Now: 70, T0: t0, T1: t1},
			{Kind: model.MovingRange, Rect: geom.RectFromCenter(c, 2000, 2000),
				Vel: geom.V(rng.Float64()*100-50, rng.Float64()*100-50), Now: 70, T0: t0, T1: t1},
			{Kind: model.TimeSlice, Circle: geom.Circle{C: c, R: 2500}, Now: 70, T0: t0},
		}
		for _, q := range queries {
			got, err := tr.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			sameIDs(t, got, want, q.Kind.String())
		}
	}
}

// TestKNNFullScanFallback holds the last-resort kNN path to the oracle: a
// query centre far enough outside the domain that the radius outgrows it
// falls back to one ScanMany over every live bucket's key range.
func TestKNNFullScanFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tr := newTestTree(t, 50, Config{})
	oracle := model.NewBruteForce()
	for i, o := range randomWorkload(3000, rng, 0) {
		o.T = float64(i%100) * 0.7
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if tr.ActiveBuckets() < 2 {
		t.Fatalf("expected >=2 active buckets, got %d", tr.ActiveBuckets())
	}
	for _, k := range []int{1, 10, 3000} {
		q := model.KNNQuery{Center: geom.V(3e6, -2e6), K: k, Now: 70, T: 80}
		got, err := tr.SearchKNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.SearchKNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d neighbours, oracle %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: neighbour %d = %+v, oracle %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestDeleteAndUpdateAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := newTestTree(t, 200, Config{})
	oracle := model.NewBruteForce()
	objs := randomWorkload(2000, rng, 0)
	for _, o := range objs {
		_ = tr.Insert(o)
		_ = oracle.Insert(o)
	}
	cur := append([]model.Object(nil), objs...)
	// Rounds of updates moving objects into later buckets.
	for round := 1; round <= 4; round++ {
		now := float64(round) * 30
		for i := range cur {
			if rng.Intn(3) != 0 {
				continue
			}
			upd := cur[i]
			upd.Pos = upd.PosAt(now)
			upd.Vel = geom.V(rng.Float64()*200-100, rng.Float64()*200-100)
			upd.T = now
			if err := tr.Update(cur[i], upd); err != nil {
				t.Fatalf("update: %v", err)
			}
			_ = oracle.Update(cur[i], upd)
			cur[i] = upd
		}
		if tr.Len() != oracle.Len() {
			t.Fatalf("len %d vs %d", tr.Len(), oracle.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for trial := 0; trial < 15; trial++ {
			q := model.RangeQuery{
				Kind: model.TimeSlice,
				Rect: geom.RectFromCenter(geom.V(rng.Float64()*100000, rng.Float64()*100000), 4000, 4000),
				Now:  now, T0: now + rng.Float64()*60,
			}
			got, _ := tr.Search(q)
			want, _ := oracle.Search(q)
			sameIDs(t, got, want, "post-update")
		}
	}
	// Buckets for long-gone boundaries must have been garbage collected.
	if tr.ActiveBuckets() > 4 {
		t.Fatalf("stale buckets: %d", tr.ActiveBuckets())
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := newTestTree(t, 50, Config{})
	o := model.Object{ID: 3, Pos: geom.V(10, 10), Vel: geom.V(1, 1), T: 0}
	if err := tr.Delete(o); err != model.ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestObjectsOutsideDomainClamped(t *testing.T) {
	tr := newTestTree(t, 50, Config{})
	oracle := model.NewBruteForce()
	// Fast object whose extrapolated reference position exits the domain.
	o := model.Object{ID: 1, Pos: geom.V(99990, 50000), Vel: geom.V(500, 0), T: 1}
	_ = tr.Insert(o)
	_ = oracle.Insert(o)
	// And one that starts outside.
	o2 := model.Object{ID: 2, Pos: geom.V(-500, -500), Vel: geom.V(-10, -10), T: 1}
	_ = tr.Insert(o2)
	_ = oracle.Insert(o2)
	for _, q := range []model.RangeQuery{
		{Kind: model.TimeSlice, Rect: geom.R(90000, 40000, 200000, 60000), Now: 1, T0: 30},
		{Kind: model.TimeSlice, Rect: geom.R(-2000, -2000, 0, 0), Now: 1, T0: 30},
	} {
		got, err := tr.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracle.Search(q)
		sameIDs(t, got, want, "clamped")
	}
	// Deleting the clamped objects must work (key recomputed identically).
	if err := tr.Delete(o); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(o2); err != nil {
		t.Fatal(err)
	}
}

func TestQueryBeforeReferenceTime(t *testing.T) {
	// Objects are indexed forward at a future boundary; a query for a time
	// before that boundary exercises the negative-gap enlargement.
	tr := newTestTree(t, 50, Config{})
	oracle := model.NewBruteForce()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		o := model.Object{
			ID:  model.ObjectID(i + 1),
			Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: geom.V(rng.Float64()*200-100, rng.Float64()*200-100),
			T:   5, // boundary will be 60
		}
		_ = tr.Insert(o)
		_ = oracle.Insert(o)
	}
	q := model.RangeQuery{
		Kind: model.TimeSlice,
		Rect: geom.RectFromCenter(geom.V(50000, 50000), 8000, 8000),
		Now:  5, T0: 10, // well before the reference time 60
	}
	got, err := tr.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracle.Search(q)
	sameIDs(t, got, want, "pre-reference query")
}

func TestExpansionRateReflectsVelocitySkew(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(axisAligned bool) geom.Vec2 {
		tr := newTestTree(t, 100, Config{})
		for i := 0; i < 2000; i++ {
			speed := 20 + rng.Float64()*80
			if rng.Intn(2) == 0 {
				speed = -speed
			}
			vel := geom.V(speed, rng.NormFloat64())
			if !axisAligned && i%2 == 0 {
				vel = geom.V(rng.NormFloat64(), speed)
			}
			_ = tr.Insert(model.Object{
				ID:  model.ObjectID(i + 1),
				Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000),
				Vel: vel, T: 0,
			})
		}
		rates := tr.ExpansionRate(geom.RectFromCenter(geom.V(50000, 50000), 5000, 5000))
		if len(rates) == 0 {
			t.Fatal("no expansion rates")
		}
		var avg geom.Vec2
		for _, r := range rates {
			avg = avg.Add(r)
		}
		return avg.Scale(1 / float64(len(rates)))
	}
	skewed := mk(true)
	mixed := mk(false)
	// Single-axis data: y-rate should be tiny relative to x-rate.
	if skewed.Y*5 > skewed.X {
		t.Fatalf("skewed rates should be anisotropic: %v", skewed)
	}
	// Mixed data: both rates comparable.
	if mixed.Y*3 < mixed.X {
		t.Fatalf("mixed rates should be isotropic-ish: %v", mixed)
	}
}

// TestQueryIOBoundedByScanCap runs a query whose window decomposes into more
// curve intervals per bucket than maxScanRanges (76 in its one bucket), so
// the scan must bridge them: the bridged keys are filtered out exactly, and
// the answers equal brute force.
func TestQueryIOBoundedByScanCap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := storage.NewBufferPool(storage.NewMemStore(), 50)
	tr, err := NewTree(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.NewBruteForce()
	for _, o := range randomWorkload(10000, rng, 0) {
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
		_ = oracle.Insert(o)
	}
	q := model.RangeQuery{
		Kind: model.TimeSlice,
		Rect: geom.RectFromCenter(geom.V(43210, 56789), 12000, 9000),
		Now:  0, T0: 10,
	}
	for _, b := range tr.buckets {
		w := tr.enlargedWindow(b, q)
		x0, y0 := tr.cellOf(geom.V(w.MinX, w.MinY))
		x1, y1 := tr.cellOf(geom.V(w.MaxX, w.MaxY))
		n := len(tr.curve.AppendWindow(nil, x0, y0, x1, y1))
		if n <= maxScanRanges {
			t.Fatalf("bucket %d: the window decomposes into %d intervals, want more than %d", b.idx, n, maxScanRanges)
		}
	}
	before := pool.Stats()
	got, err := tr.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	want, _ := oracle.Search(q)
	sameIDs(t, got, want, "bridged scan")
	// One descent, then at most maxScanRanges re-seeks and the leaves they
	// walk: a sanity bound, not a cost model.
	if touched := (after.Misses - before.Misses) + (after.Hits - before.Hits); touched <= 0 || touched > 400 {
		t.Fatalf("query touched %d pages", touched)
	}
}

func TestHeightReported(t *testing.T) {
	tr := newTestTree(t, 100, Config{})
	if tr.Height() != 1 {
		t.Fatalf("empty height = %d", tr.Height())
	}
	rng := rand.New(rand.NewSource(1))
	for _, o := range randomWorkload(5000, rng, 0) {
		_ = tr.Insert(o)
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d after 5000 inserts", tr.Height())
	}
}

// readLog is a PageStore that records which pages are physically read.
type readLog struct {
	storage.PageStore
	ids []storage.PageID
}

func (l *readLog) ReadPage(id storage.PageID, dst *[storage.PageSize]byte) error {
	l.ids = append(l.ids, id)
	return l.PageStore.ReadPage(id, dst)
}

// TestSearchDescendsOncePerTree holds a range search to one descent per tree,
// not one per time bucket: on a height-3 tree with three live buckets, every
// page one Search touches — the root, the internal nodes on its path, the
// leaves — it touches exactly once. The pool has a single frame, so every
// access to a page other than the last one is a physical read and the log
// shows the whole walk; a search that descended per bucket would read the
// root three times.
func TestSearchDescendsOncePerTree(t *testing.T) {
	log := &readLog{PageStore: storage.NewMemStore()}
	pool := storage.NewBufferPool(log, 1)
	tr, err := NewTree(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	oracle := model.NewBruteForce()
	for b, tref := range []float64{30, 90, 150} { // bucket width 60: three buckets
		for _, o := range randomWorkload(5000, rng, tref) {
			o.ID += model.ObjectID(b * 5000)
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
			_ = oracle.Insert(o)
		}
	}
	if tr.Height() != 3 || tr.ActiveBuckets() != 3 {
		t.Fatalf("height %d with %d live buckets, want 3 and 3", tr.Height(), tr.ActiveBuckets())
	}
	q := model.RangeQuery{Kind: model.TimeSlice, Circle: geom.Circle{C: geom.V(50000, 50000), R: 3000}, Now: 150, T0: 170}
	log.ids = log.ids[:0]
	before := pool.Stats()
	got, err := tr.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracle.Search(q)
	sameIDs(t, got, want, "search")
	after := pool.Stats()
	seen := make(map[storage.PageID]bool)
	for _, id := range log.ids {
		if seen[id] {
			t.Errorf("page %d read twice in one search (the first page read, %d, is the root)", id, log.ids[0])
		}
		seen[id] = true
	}
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 0 || int(misses) != len(log.ids) || len(log.ids) < 1+2+3 {
		t.Fatalf("one search: %d hits and %d misses over %d logged reads; want no hit and at least a root, two internal nodes and three leaves",
			hits, misses, len(log.ids))
	}
}

// Height returns the underlying B+-tree height (update cost is directly
// proportional to it — Section 6.3 of the paper).
func (t *Tree) Height() int { return t.bt.Height() }

// ActiveBuckets returns the number of live time buckets (diagnostics).
func (t *Tree) ActiveBuckets() int { return len(t.buckets) }
