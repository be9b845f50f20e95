package tprtree

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

// randomWorkload produces n objects with skewed, road-like velocities at
// reference time tref.
func randomWorkload(n int, rng *rand.Rand, tref float64) []model.Object {
	objs := make([]model.Object, n)
	for i := range objs {
		var vel geom.Vec2
		speed := rng.Float64() * 100
		if rng.Intn(2) == 0 {
			speed = -speed
		}
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

func sortIDs(ids []model.ObjectID) {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
}

func sameIDs(t *testing.T, got, want []model.ObjectID, context string) {
	t.Helper()
	sortIDs(got)
	sortIDs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\n got:  %v\n want: %v",
			context, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d differs: %d vs %d", context, i, got[i], want[i])
		}
	}
}

func TestEmptyTreeQuery(t *testing.T) {
	tr := newTestTree(t, 50, Config{})
	ids, err := tr.Search(model.RangeQuery{
		Kind: model.TimeSlice,
		Rect: geom.R(0, 0, 1000, 1000),
		Now:  0, T0: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("empty tree returned %v", ids)
	}
}

func TestInsertSearchSingle(t *testing.T) {
	tr := newTestTree(t, 50, Config{})
	o := model.Object{ID: 1, Pos: geom.V(500, 500), Vel: geom.V(10, 0), T: 0}
	if err := tr.Insert(o); err != nil {
		t.Fatal(err)
	}
	// At t=50 the object is at (1000, 500).
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

func TestInvalidInsert(t *testing.T) {
	tr := newTestTree(t, 50, Config{})
	bad := model.Object{ID: 1, Pos: geom.Vec2{X: 1, Y: 2}, Vel: geom.Vec2{X: 0, Y: 0}, T: 0}
	bad.Pos.X = nan()
	if err := tr.Insert(bad); err == nil {
		t.Fatal("NaN position accepted")
	}
}

func nan() float64 { var z float64; return z / z }

func TestBulkAgainstOracleAllQueryKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := newTestTree(t, 200, Config{})
	oracle := model.NewBruteForce()
	objs := randomWorkload(3000, rng, 0)
	for _, o := range objs {
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 60; trial++ {
		c := geom.V(rng.Float64()*100000, rng.Float64()*100000)
		t0 := rng.Float64() * 60
		t1 := t0 + rng.Float64()*60
		queries := []model.RangeQuery{
			{Kind: model.TimeSlice, Rect: geom.RectFromCenter(c, 3000, 3000), Now: 0, T0: t0},
			{Kind: model.TimeInterval, Rect: geom.RectFromCenter(c, 2000, 2000), Now: 0, T0: t0, T1: t1},
			{Kind: model.MovingRange, Rect: geom.RectFromCenter(c, 2000, 2000),
				Vel: geom.V(rng.Float64()*100-50, rng.Float64()*100-50), Now: 0, T0: t0, T1: t1},
			{Kind: model.TimeSlice, Circle: geom.Circle{C: c, R: 2500}, Now: 0, T0: t0},
			{Kind: model.TimeInterval, Circle: geom.Circle{C: c, R: 1500}, Now: 0, T0: t0, T1: t1},
		}
		for qi, q := range queries {
			got, err := tr.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			sameIDs(t, got, want, q.Kind.String()+" trial "+string(rune('0'+qi)))
		}
	}
}

func TestDeleteAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := newTestTree(t, 200, Config{})
	oracle := model.NewBruteForce()
	objs := randomWorkload(2000, rng, 0)
	for _, o := range objs {
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
		_ = oracle.Insert(o)
	}
	// Delete a random half.
	perm := rng.Perm(len(objs))
	for _, p := range perm[:len(objs)/2] {
		if err := tr.Delete(objs[p]); err != nil {
			t.Fatalf("delete %v: %v", objs[p].ID, err)
		}
		_ = oracle.Delete(objs[p])
	}
	if tr.Len() != oracle.Len() {
		t.Fatalf("len %d vs %d", tr.Len(), oracle.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := model.RangeQuery{
			Kind: model.TimeSlice,
			Rect: geom.RectFromCenter(geom.V(rng.Float64()*100000, rng.Float64()*100000), 4000, 4000),
			Now:  0, T0: rng.Float64() * 100,
		}
		got, _ := tr.Search(q)
		want, _ := oracle.Search(q)
		sameIDs(t, got, want, "post-delete slice query")
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := newTestTree(t, 50, Config{})
	o := model.Object{ID: 9, Pos: geom.V(10, 10), Vel: geom.V(1, 1), T: 0}
	if err := tr.Delete(o); err != model.ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := tr.Insert(o); err != nil {
		t.Fatal(err)
	}
	other := o
	other.ID = 10
	if err := tr.Delete(other); err != model.ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if tr.Len() != 1 {
		t.Fatal("failed delete changed size")
	}
}

func TestUpdateMovesObject(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := newTestTree(t, 200, Config{})
	oracle := model.NewBruteForce()
	objs := randomWorkload(1500, rng, 0)
	for _, o := range objs {
		_ = tr.Insert(o)
		_ = oracle.Insert(o)
	}
	// Simulate 3 update rounds: at t = 30, 60, 90 a third of the objects
	// report new positions/velocities.
	cur := append([]model.Object(nil), objs...)
	for round := 1; round <= 3; round++ {
		now := float64(round) * 30
		for i := range cur {
			if rng.Intn(3) != 0 {
				continue
			}
			updated := cur[i]
			updated.Pos = updated.PosAt(now)
			updated.Vel = geom.V(rng.Float64()*200-100, rng.Float64()*200-100)
			updated.T = now
			if err := tr.Update(cur[i], updated); err != nil {
				t.Fatalf("update %d: %v", cur[i].ID, err)
			}
			if err := oracle.Update(cur[i], updated); err != nil {
				t.Fatal(err)
			}
			cur[i] = updated
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for trial := 0; trial < 15; trial++ {
			q := model.RangeQuery{
				Kind: model.TimeSlice,
				Rect: geom.RectFromCenter(geom.V(rng.Float64()*100000, rng.Float64()*100000), 5000, 5000),
				Now:  now, T0: now + rng.Float64()*60,
			}
			got, _ := tr.Search(q)
			want, _ := oracle.Search(q)
			sameIDs(t, got, want, "post-update query")
		}
	}
}

func TestLeafBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := newTestTree(t, 200, Config{})
	objs := randomWorkload(1200, rng, 0)
	total := 0
	for _, o := range objs {
		_ = tr.Insert(o)
	}
	lbs, err := tr.LeafBounds(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, lb := range lbs {
		total += lb.Count
		if lb.MR.MBR.IsEmpty() {
			t.Fatal("empty leaf bound")
		}
		if lb.Count > LeafCap {
			t.Fatalf("leaf with %d entries exceeds cap", lb.Count)
		}
	}
	if total != len(objs) {
		t.Fatalf("leaf counts sum to %d, want %d", total, len(objs))
	}
	internal, leaves, err := tr.NodeCount()
	if err != nil {
		t.Fatal(err)
	}
	if leaves != len(lbs) {
		t.Fatalf("NodeCount leaves %d vs LeafBounds %d", leaves, len(lbs))
	}
	if tr.Height() > 1 && internal == 0 {
		t.Fatal("multi-level tree must have internal nodes")
	}
}

func TestVelocitySkewShrinksSweep(t *testing.T) {
	// The core premise of the VP paper: a tree over single-axis movers has
	// leaf VBRs that are near-1D, so the summed sweep volume is far smaller
	// than for mixed-direction movers. This validates that our TPR* split/
	// insert heuristics actually exploit velocity grouping.
	rng := rand.New(rand.NewSource(10))
	mk := func(mixed bool) float64 {
		tr := newTestTree(t, 500, Config{})
		for i := 0; i < 2000; i++ {
			speed := 20 + rng.Float64()*80
			if rng.Intn(2) == 0 {
				speed = -speed
			}
			vel := geom.V(speed, rng.NormFloat64())
			if mixed && i%2 == 0 {
				vel = geom.V(rng.NormFloat64(), speed)
			}
			o := model.Object{
				ID:  model.ObjectID(i + 1),
				Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000),
				Vel: vel,
				T:   0,
			}
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		lbs, err := tr.LeafBounds(0)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, lb := range lbs {
			sum += lb.MR.SweepVolume(0, 60)
		}
		return sum
	}
	oneAxis := mk(false)
	mixed := mk(true)
	if oneAxis*1.3 > mixed {
		t.Fatalf("single-axis sweep %g should be well below mixed %g", oneAxis, mixed)
	}
}

func TestQueryIOSensibleVsScan(t *testing.T) {
	// A selective query should touch far fewer pages than the total page
	// count of the tree.
	rng := rand.New(rand.NewSource(4))
	pool := storage.NewBufferPool(storage.NewMemStore(), 50)
	tr, err := NewTree(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range randomWorkload(20000, rng, 0) {
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	internal, leaves, _ := tr.NodeCount()
	totalPages := internal + leaves
	before := pool.Stats()
	_, err = tr.Search(model.RangeQuery{
		Kind: model.TimeSlice,
		Rect: geom.RectFromCenter(geom.V(50000, 50000), 500, 500),
		Now:  0, T0: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	touched := (after.Misses - before.Misses) + (after.Hits - before.Hits)
	if touched <= 0 {
		t.Fatal("query touched nothing")
	}
	if int(touched) > totalPages/4 {
		t.Fatalf("selective query touched %d of %d pages", touched, totalPages)
	}
}

func TestConfigDefaults(t *testing.T) {
	if c := (Config{}).withDefaults(); c.Horizon != 120 {
		t.Fatalf("defaults = %+v", c)
	}
	if c := (Config{Horizon: 10}).withDefaults(); c.Horizon != 10 {
		t.Fatalf("overrides = %+v", c)
	}
	if queryExtent/2 != 500 || reinsertFraction != 0.3 {
		t.Fatalf("query extent %g, reinsert fraction %g; want 1000 and 0.3", queryExtent, reinsertFraction)
	}
}

func TestVelocityAwareSplitsReduceSweep(t *testing.T) {
	// The regime where the split's velocity sort keys matter: objects that
	// are spatially co-located but split into two opposing velocity groups.
	// Position sort keys cannot separate them; the velocity keys can, so no
	// leaf ends up holding both groups (sorting by position alone leaves 12
	// of 32 leaves mixed), and a mixed leaf's bound would expand at the sum
	// of the two speeds.
	rng := rand.New(rand.NewSource(44))
	tr := newTestTree(t, 500, Config{})
	for i := 0; i < 2000; i++ {
		// Dense cluster: everything within a 200 m blob.
		pos := geom.V(50000+rng.Float64()*200, 50000+rng.Float64()*200)
		speed := 60 + rng.Float64()*40
		if i%2 == 0 {
			speed = -speed
		}
		o := model.Object{ID: model.ObjectID(i + 1), Pos: pos, Vel: geom.V(speed, rng.NormFloat64()), T: 0}
		if err := tr.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	lbs, err := tr.LeafBounds(0)
	if err != nil {
		t.Fatal(err)
	}
	mixed := 0
	for _, lb := range lbs {
		if lb.MR.VBR.MinX < 0 && lb.MR.VBR.MaxX > 0 {
			mixed++
		}
	}
	if mixed != 0 {
		t.Fatalf("%d of %d leaves hold both velocity groups, want none", mixed, len(lbs))
	}
}

// TestSoakMixedOperations hammers the tree with a long random mix of
// inserts, deletes and updates while repeatedly validating structural
// invariants and query agreement with the oracle — the kind of churn a
// long-running tracking service produces.
func TestSoakMixedOperations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(77))
	tr := newTestTree(t, 100, Config{})
	oracle := model.NewBruteForce()
	live := map[model.ObjectID]model.Object{}
	nextID := model.ObjectID(1)
	now := 0.0

	randomObj := func() model.Object {
		speed := 20 + rng.Float64()*80
		if rng.Intn(2) == 0 {
			speed = -speed
		}
		vel := geom.V(speed, rng.NormFloat64()*2)
		if rng.Intn(2) == 0 {
			vel = geom.V(rng.NormFloat64()*2, speed)
		}
		o := model.Object{
			ID:  nextID,
			Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: vel,
			T:   now,
		}
		nextID++
		return o
	}
	pick := func() (model.Object, bool) {
		for _, o := range live {
			return o, true
		}
		return model.Object{}, false
	}

	for step := 0; step < 6000; step++ {
		now += 0.01
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0: // insert
			o := randomObj()
			if err := tr.Insert(o); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			_ = oracle.Insert(o)
			live[o.ID] = o
		case r < 7: // delete
			o, ok := pick()
			if !ok {
				continue
			}
			if err := tr.Delete(o); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			_ = oracle.Delete(o)
			delete(live, o.ID)
		default: // update
			o, ok := pick()
			if !ok {
				continue
			}
			upd := o
			upd.Pos = o.PosAt(now)
			upd.Vel = geom.V(rng.Float64()*200-100, rng.Float64()*200-100)
			upd.T = now
			if err := tr.Update(o, upd); err != nil {
				t.Fatalf("step %d update: %v", step, err)
			}
			_ = oracle.Update(o, upd)
			live[o.ID] = upd
		}
		if step%1000 == 999 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			q := model.RangeQuery{
				Kind: model.TimeSlice,
				Rect: geom.RectFromCenter(geom.V(rng.Float64()*100000, rng.Float64()*100000), 8000, 8000),
				Now:  now, T0: now + rng.Float64()*60,
			}
			got, _ := tr.Search(q)
			want, _ := oracle.Search(q)
			sameIDs(t, got, want, "soak query")
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("size drift: %d vs %d", tr.Len(), len(live))
	}
}

// Height returns the tree height (1 = single leaf node).
func (t *Tree) Height() int { return t.height }

// NodeCount returns (internal, leaf) node totals.
func (t *Tree) NodeCount() (internal, leaves int, err error) {
	err = t.walk(func(n *node) {
		if n.leaf() {
			leaves++
		} else {
			internal++
		}
	})
	return internal, leaves, err
}
