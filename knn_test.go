package vpindex_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	vpindex "repro"
	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/tprtree"
)

// knnOracleCheck verifies a store's kNN results against the brute-force
// oracle. Distances must agree exactly in order; ids may differ only
// within exact-tie groups.
func knnOracleCheck(t *testing.T, idx interface {
	SearchKNN(vpindex.KNNQuery) ([]vpindex.Neighbor, error)
}, oracle *model.BruteForce, q vpindex.KNNQuery) {
	t.Helper()
	got, err := idx.SearchKNN(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.SearchKNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("kNN returned %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
			t.Fatalf("neighbor %d: dist %g vs oracle %g", i, got[i].Dist, want[i].Dist)
		}
	}
	// Non-tied prefixes must agree on ids too.
	for i := range got {
		if got[i].ID != want[i].ID {
			// Permitted only when distances tie exactly.
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
				t.Fatalf("neighbor %d: id %d vs %d at non-tied distance", i, got[i].ID, want[i].ID)
			}
		}
	}
}

func knnFleet(n int, seed int64) []vpindex.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]vpindex.Object, n)
	for i := range objs {
		speed := 20 + rng.Float64()*80
		if rng.Intn(2) == 0 {
			speed = -speed
		}
		vel := vpindex.V(speed, rng.NormFloat64()*2)
		if i%2 == 0 {
			vel = vpindex.V(rng.NormFloat64()*2, speed)
		}
		if i%17 == 0 {
			vel = vpindex.V(rng.Float64()*160-80, rng.Float64()*160-80)
		}
		objs[i] = vpindex.Object{
			ID:  vpindex.ObjectID(i + 1),
			Pos: vpindex.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: vel,
			T:   0,
		}
	}
	return objs
}

func TestKNNAgainstOracleAllIndexes(t *testing.T) {
	objs := knnFleet(3000, 5)
	sample := make([]vpindex.Vec2, len(objs))
	for i, o := range objs {
		sample[i] = o.Vel
	}
	oracle := model.NewBruteForce()
	for _, o := range objs {
		_ = oracle.Insert(o)
	}

	for _, su := range storeSetups() {
		t.Run(su.name, func(t *testing.T) {
			idx := su.open(t, sample, vpindex.WithBufferPages(200), vpindex.WithSeed(1))
			for _, o := range objs {
				if err := idx.Insert(o); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(9))
			for trial := 0; trial < 25; trial++ {
				q := vpindex.KNNQuery{
					Center: vpindex.V(rng.Float64()*100000, rng.Float64()*100000),
					K:      1 + rng.Intn(20),
					Now:    0,
					T:      rng.Float64() * 120,
				}
				knnOracleCheck(t, idx, oracle, q)
			}
		})
	}
}

func TestKNNEdgeCases(t *testing.T) {
	idx, err := vpindex.Open(vpindex.WithKind(vpindex.TPRStar))
	if err != nil {
		t.Fatal(err)
	}
	// Empty index.
	ns, err := idx.SearchKNN(vpindex.KNNQuery{Center: vpindex.V(0, 0), K: 3, Now: 0, T: 10})
	if err != nil || len(ns) != 0 {
		t.Fatalf("empty kNN: %v %v", ns, err)
	}
	// Invalid queries.
	if _, err := idx.SearchKNN(vpindex.KNNQuery{K: 0, T: 1}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := idx.SearchKNN(vpindex.KNNQuery{K: 1, Now: 5, T: 1}); err == nil {
		t.Fatal("past kNN accepted")
	}
	// k exceeding population returns everything.
	for i := 0; i < 5; i++ {
		_ = idx.Insert(vpindex.Object{ID: vpindex.ObjectID(i + 1),
			Pos: vpindex.V(float64(i)*100, 0), Vel: vpindex.V(1, 0), T: 0})
	}
	ns, err = idx.SearchKNN(vpindex.KNNQuery{Center: vpindex.V(0, 0), K: 50, Now: 0, T: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 5 {
		t.Fatalf("k>n returned %d", len(ns))
	}
	// Results in ascending distance order.
	for i := 1; i < len(ns); i++ {
		if ns[i].Dist < ns[i-1].Dist {
			t.Fatal("neighbors out of order")
		}
	}
	// K = math.MaxInt is every live object, sorted, on both trees: nothing may
	// size an allocation by K (make(…, 0, K) panics: cap out of range).
	for _, kind := range []vpindex.Kind{vpindex.TPRStar, vpindex.Bx} {
		store, err := vpindex.Open(vpindex.WithKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		oracle := model.NewBruteForce()
		for _, o := range knnFleet(300, 3) {
			if err := store.Report(o); err != nil {
				t.Fatal(err)
			}
			_ = oracle.Insert(o)
		}
		q := vpindex.KNNQuery{Center: vpindex.V(50000, 50000), K: math.MaxInt, Now: 0, T: 30}
		got, err := store.SearchKNN(q)
		if err != nil {
			t.Fatalf("%s: K = math.MaxInt: %v", kind, err)
		}
		if want, _ := oracle.SearchKNN(q); !slices.Equal(got, want) {
			t.Fatalf("%s: K = math.MaxInt returned %d neighbours, want all %d in order", kind, len(got), len(want))
		}
		store.Close()
	}
}

func TestKNNBxSparseFallback(t *testing.T) {
	// A Bx kNN where almost everything is far away forces radius doubling
	// (and possibly the full-scan fallback).
	idx, err := vpindex.Open(vpindex.WithKind(vpindex.Bx))
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.NewBruteForce()
	// 10 objects clustered in the far corner.
	for i := 0; i < 10; i++ {
		o := vpindex.Object{
			ID:  vpindex.ObjectID(i + 1),
			Pos: vpindex.V(99000+float64(i)*10, 99000),
			Vel: vpindex.V(1, 0),
			T:   0,
		}
		_ = idx.Insert(o)
		_ = oracle.Insert(o)
	}
	q := vpindex.KNNQuery{Center: vpindex.V(0, 0), K: 3, Now: 0, T: 60}
	knnOracleCheck(t, idx, oracle, q)
}

// knnBoundCase is one population and the kNN queries asked of it. Positions,
// velocities and times are integers, so extrapolated positions are exact.
type knnBoundCase struct {
	name    string
	objs    []vpindex.Object
	queries []vpindex.KNNQuery
}

// knnBoundCases are the populations that stress a kNN which bounds its later
// partitions by the first one's k-th distance. Objects move along x, along y
// or diagonally: under an axis-aligned two-DVA analysis those are partitions
// 0 and 1 and the outlier partition 2.
func knnBoundCases() []knnBoundCase {
	const k = 10
	rng := rand.New(rand.NewSource(21))
	speed := func() float64 { return float64(20+rng.Intn(81)) * float64(1-2*rng.Intn(2)) }
	// fleet draws n objects of which the first `diagonal` move diagonally and
	// the rest alternate between the axes, inside the box [lo, hi)².
	fleet := func(n, diagonal int, lo, hi float64) []vpindex.Object {
		objs := make([]vpindex.Object, n)
		for i := range objs {
			s := speed()
			vel := vpindex.V(s, 0)
			switch {
			case i < diagonal:
				vel = vpindex.V(s, -s)
			case i%2 == 0:
				vel = vpindex.V(0, s)
			}
			at := func() float64 { return lo + float64(rng.Intn(int(hi-lo))) }
			objs[i] = vpindex.Object{ID: vpindex.ObjectID(i + 1), Pos: vpindex.V(at(), at()), Vel: vel}
		}
		return objs
	}
	queries := func(n, k int, lo, hi float64) []vpindex.KNNQuery {
		qs := make([]vpindex.KNNQuery, n)
		for i := range qs {
			c := vpindex.V(lo+float64(rng.Intn(int(hi-lo))), lo+float64(rng.Intn(int(hi-lo))))
			qs[i] = vpindex.KNNQuery{Center: c, K: k, T: float64([]int{0, 10, 60}[i%3])}
		}
		return qs
	}
	var cases []knnBoundCase
	// A skewed population: the outlier partition holds none, one, k-1 and 2 %
	// of the objects; some queries sit right on an outlier.
	for _, diagonal := range []int{0, 1, k - 1, 30} {
		c := knnBoundCase{name: fmt.Sprintf("outliers=%d", diagonal), objs: fleet(1500, diagonal, 0, 100000), queries: queries(12, k, 0, 100000)}
		for _, o := range c.objs[:min(diagonal, 2)] {
			c.queries = append(c.queries, vpindex.KNNQuery{Center: o.PosAt(60), K: k, T: 60})
		}
		cases = append(cases, c)
	}
	// k above the largest partition (no bound to be had from it), equal to the
	// population and above it.
	small := knnBoundCase{name: "k>partition", objs: fleet(30, 8, 40000, 60000)}
	for _, k := range []int{15, 30, 50} {
		small.queries = append(small.queries, queries(3, k, 40000, 60000)...)
	}
	cases = append(cases, small)
	// Exact ties at the k-th place that straddle partitions, the lowest id in
	// the last one: at time 10 ids 20 (x mover), 7 (y mover), 5 and 3 (diagonal)
	// are all exactly 300 from the centre, ids 30 and 31 nearer, the rest far.
	centre := vpindex.V(50000, 50000)
	ties := knnBoundCase{name: "ties", objs: fleet(60, 0, 0, 30000)}
	for i := range ties.objs {
		ties.objs[i].ID += 100
		if i%3 > 0 { // two thirds x movers: partition 0 is probed first
			ties.objs[i].Vel = vpindex.V(speed(), 0)
		}
	}
	for _, o := range []struct {
		id       vpindex.ObjectID
		vel, off vpindex.Vec2
	}{
		{30, vpindex.V(40, 0), vpindex.V(100, 0)}, {31, vpindex.V(-40, 0), vpindex.V(0, 200)},
		{20, vpindex.V(25, 0), vpindex.V(300, 0)}, {7, vpindex.V(0, 50), vpindex.V(-300, 0)},
		{5, vpindex.V(30, 30), vpindex.V(0, 300)}, {3, vpindex.V(-30, 30), vpindex.V(0, -300)},
	} {
		ties.objs = append(ties.objs, vpindex.Object{ID: o.id, Pos: centre.Add(o.off).Sub(o.vel.Scale(10)), Vel: o.vel})
	}
	for k := 1; k <= 8; k++ {
		ties.queries = append(ties.queries, vpindex.KNNQuery{Center: centre, K: k, T: 10})
	}
	cases = append(cases, ties)
	// Objects that have left the domain by query time, and centres outside it.
	outside := knnBoundCase{name: "outside", objs: fleet(400, 20, 95000, 100000), queries: queries(6, k, 94000, 108000)}
	for i := range outside.objs {
		o := &outside.objs[i]
		o.Vel = vpindex.V(math.Abs(o.Vel.X), math.Abs(o.Vel.Y)) // up and to the right: out
	}
	for _, o := range fleet(200, 10, 0, 100000) { // and a population that stays inside
		o.ID += 400
		outside.objs = append(outside.objs, o)
	}
	for _, c := range []vpindex.Vec2{vpindex.V(104000, 50000), vpindex.V(-3000, -3000), vpindex.V(120000, 130000)} {
		outside.queries = append(outside.queries, vpindex.KNNQuery{Center: c, K: k, T: 60})
	}
	return append(cases, outside)
}

// TestKNNBoundedMatchesBruteForce specifies the partitioned kNN against the
// brute-force answer where bounding the later partitions by the first one's
// k-th distance could go wrong: skewed populations, k above a partition's and
// the whole population's size, exact ties that straddle partitions, objects
// and centres outside the domain. At the core.Manager level the partition
// frames are exact quarter turns, so every distance is bit-equal to the world
// frame's and the answer must equal brute force id for id; through the Store
// the frames come from the analyzer and ties may resolve either way.
func TestKNNBoundedMatchesBruteForce(t *testing.T) {
	axes := core.Analysis{Kind: core.KindDVA, Frames: []core.Frame{
		{Axis: vpindex.V(1, 0), Tau: 5}, {Axis: vpindex.V(0, 1), Tau: 5}, {IsOutlier: true},
	}}
	for _, c := range knnBoundCases() {
		oracle := model.NewBruteForce()
		sample := make([]vpindex.Vec2, len(c.objs))
		for i, o := range c.objs {
			if err := oracle.Insert(o); err != nil {
				t.Fatal(err)
			}
			sample[i] = o.Vel
		}
		for _, kind := range []vpindex.Kind{vpindex.Bx, vpindex.TPRStar} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("manager/%s/par=%d/%s", kind, par, c.name), func(t *testing.T) {
					m, err := core.NewManager(axes, core.ManagerConfig{SearchParallelism: par}, func(spec core.PartitionSpec) (model.Index, error) {
						pool := storage.NewBufferPool(storage.NewMemStore(), 64)
						if kind == vpindex.Bx {
							return bxtree.NewTree(pool, bxtree.Config{Domain: spec.Domain})
						}
						return tprtree.NewTree(pool, tprtree.Config{})
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := m.InsertBulk(c.objs); err != nil {
						t.Fatal(err)
					}
					for _, q := range c.queries {
						got, err := m.SearchKNN(q)
						if err != nil {
							t.Fatal(err)
						}
						if want, _ := oracle.SearchKNN(q); !slices.Equal(got, want) {
							t.Fatalf("%+v:\n got %v\nwant %v", q, got, want)
						}
					}
				})
				t.Run(fmt.Sprintf("store/%s/par=%d/%s", kind, par, c.name), func(t *testing.T) {
					store, err := vpindex.Open(vpindex.WithKind(kind), vpindex.WithSearchParallelism(par), vpindex.WithSeed(1),
						vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(sample))
					if err != nil {
						t.Fatal(err)
					}
					defer store.Close()
					if err := store.ReportBatch(c.objs); err != nil {
						t.Fatal(err)
					}
					for _, q := range c.queries {
						knnOracleCheck(t, store, oracle, q)
					}
				})
			}
		}
	}
}
