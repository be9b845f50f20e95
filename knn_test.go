package vpindex_test

import (
	"math"
	"math/rand"
	"testing"

	vpindex "repro"
	"repro/internal/model"
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
