package vpindex_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	vpindex "repro"
)

// TestStoreRejectsHostileQueries pins the query side of the hostile-input
// contract: Search and SearchKNN validate before anything else, so a query
// with k <= 0, a time before its issue time, an inverted interval, an empty
// region or any non-finite field is refused with ErrInvalidQuery on both
// index kinds — the Store is where queries are validated; the indexes behind
// it take them on trust — and never reaches the query-shape log the partition
// chooser scores its candidates against. (A logged NaN window made every
// candidate's estimated cost NaN, and the chooser silently elected the first
// one; core's TestEstimateCostSkipsNonFiniteShapes pins that side.)
func TestStoreRejectsHostileQueries(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	c := vpindex.Circle{C: vpindex.V(5000, 5000), R: 500}
	r := vpindex.R(1000, 1000, 2000, 2000)
	ranges := map[string]vpindex.RangeQuery{
		"past":            vpindex.RectSliceQuery(r, 10, 5),
		"inverted":        vpindex.IntervalQuery(r, 0, 5, 1),
		"empty rect":      vpindex.RectSliceQuery(vpindex.Rect{MinX: 2, MaxX: 1, MinY: 0, MaxY: 1}, 0, 0),
		"negative radius": vpindex.SliceQuery(vpindex.Circle{C: c.C, R: -1}, 0, 0),
		"NaN T0":          vpindex.SliceQuery(c, 0, nan),
		"Inf T1":          vpindex.IntervalQuery(r, 0, 1, inf),
		"NaN Now":         vpindex.SliceQuery(c, nan, 1),
		"NaN center":      vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(nan, 0), R: 5}, 0, 1),
		"Inf radius":      vpindex.SliceQuery(vpindex.Circle{C: c.C, R: inf}, 0, 1),
		"Inf rect":        vpindex.RectSliceQuery(vpindex.Rect{MinX: 0, MinY: 0, MaxX: inf, MaxY: 1}, 0, 1),
		"NaN vel":         vpindex.MovingQuery(r, vpindex.V(nan, 1), 0, 1, 2),
	}
	knns := map[string]vpindex.KNNQuery{
		"k=0":        {Center: c.C, K: 0, T: 1},
		"past":       {Center: c.C, K: 3, Now: 5, T: 1},
		"NaN T":      {Center: c.C, K: 3, T: nan},
		"NaN center": {Center: vpindex.V(0, nan), K: 3, T: 1},
		"Inf Now":    {Center: c.C, K: 3, Now: -inf, T: 1},
	}
	for _, kind := range []vpindex.Kind{vpindex.Bx, vpindex.TPRStar} {
		store, err := vpindex.Open(vpindex.WithKind(kind), vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
			vpindex.WithPartitioner(vpindex.ObjectiveAuto), vpindex.WithVelocitySample(testSample(400, 3)), vpindex.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Report(vpindex.Object{ID: 1, Pos: c.C, Vel: vpindex.V(1, 0)}); err != nil {
			t.Fatal(err)
		}
		// One good query each, so an unchanged log size is not an empty log.
		if ids, err := store.Search(vpindex.SliceQuery(c, 0, 1)); err != nil || len(ids) != 1 {
			t.Fatalf("%v: good search: %v, %v", kind, ids, err)
		}
		if ns, err := store.SearchKNN(vpindex.KNNQuery{Center: c.C, K: 3, T: 1}); err != nil || len(ns) != 1 {
			t.Fatalf("%v: good kNN: %v, %v", kind, ns, err)
		}
		if n := store.QueryLogSize(); n != 2 {
			t.Fatalf("%v: query log holds %d shapes after two good queries", kind, n)
		}
		for name, q := range ranges {
			if ids, err := store.Search(q); !errors.Is(err, vpindex.ErrInvalidQuery) || ids != nil {
				t.Errorf("%v: Search %s: %v, %v; want ErrInvalidQuery", kind, name, ids, err)
			}
		}
		for name, q := range knns {
			if ns, err := store.SearchKNN(q); !errors.Is(err, vpindex.ErrInvalidQuery) || ns != nil {
				t.Errorf("%v: SearchKNN %s: %v, %v; want ErrInvalidQuery", kind, name, ns, err)
			}
		}
		if n := store.QueryLogSize(); n != 2 {
			t.Errorf("%v: rejected queries reached the query log: %d shapes, want 2", kind, n)
		}
	}
	// Only the auto chooser reads the log: a store with a fixed objective
	// keeps none.
	dva, err := vpindex.Open(vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithVelocitySample(testSample(400, 3)), vpindex.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dva.Search(vpindex.SliceQuery(c, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := dva.SearchKNN(vpindex.KNNQuery{Center: c.C, K: 3, T: 1}); err != nil {
		t.Fatal(err)
	}
	if n := dva.QueryLogSize(); n != 0 {
		t.Fatalf("DVA store logged %d query shapes, want 0", n)
	}
}

// TestStoreRejectsHostileSubscriptions: a NaN or infinite horizon or window
// is refused with ErrInvalidQuery before anything is registered or logged. A
// NaN window used to pass validation (NaN < 0 is false), evaluate as a
// time-slice (NaN > 0 is false too) and land in the log and the checkpoint.
func TestStoreRejectsHostileSubscriptions(t *testing.T) {
	store, err := vpindex.Open(vpindex.WithShards(2), vpindex.WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	good := vpindex.Subscription{Query: vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(500, 500), R: 100}, 0, 0), Horizon: 5}
	if _, _, err := store.Subscribe(good, 0); err != nil {
		t.Fatal(err)
	}
	before, _ := store.DurabilityStats()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		horizon, window := good, good
		horizon.Horizon, window.Window = v, v
		for field, sub := range map[string]vpindex.Subscription{"horizon": horizon, "window": window} {
			if id, _, err := store.Subscribe(sub, 0); !errors.Is(err, vpindex.ErrInvalidQuery) {
				t.Errorf("Subscribe with %s %v = %d, %v; want ErrInvalidQuery", field, v, id, err)
			}
		}
	}
	after, _ := store.DurabilityStats()
	if n := store.NumSubscriptions(); n != 1 || after.WALAppendedLSN != before.WALAppendedLSN {
		t.Fatalf("rejected subscribes left %d subscriptions and moved the log %d -> %d",
			n, before.WALAppendedLSN, after.WALAppendedLSN)
	}
}

// TestOpenRejectsHostileOptions pins the option side of the hostile-input
// contract: Open refuses the values that would hang or thrash a Store, and
// RepartitionTo refuses what is not one of the three partitioners. A domain
// with a non-finite coordinate made Bx kNN spin forever with every stripe
// held (its search radius was NaN), a NaN drift threshold rebuilt the
// partitions at every drift check, and an unknown objective silently ran DVA.
func TestOpenRejectsHostileOptions(t *testing.T) {
	coords := []string{"MinX", "MinY", "MaxX", "MaxY"}
	for _, kind := range []vpindex.Kind{vpindex.TPRStar, vpindex.Bx} {
		for i, coord := range coords {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				c := [4]float64{0, 0, 1000, 1000}
				c[i] = v
				d := vpindex.Rect{MinX: c[0], MinY: c[1], MaxX: c[2], MaxY: c[3]}
				s, err := vpindex.Open(vpindex.WithKind(kind), vpindex.WithDomain(d))
				if err == nil {
					s.Close()
					t.Errorf("%v: Open with domain %s = %v succeeded", kind, coord, v)
				} else if !strings.Contains(err.Error(), coord) {
					t.Errorf("%v: Open with domain %s = %v: error %q does not name the coordinate", kind, coord, v, err)
				}
			}
		}
	}

	policy := vpindex.RepartitionPolicy{Every: 500, DriftThreshold: math.NaN()}
	if s, err := vpindex.Open(vpindex.WithKind(vpindex.Bx), vpindex.WithAutoPartition(500), vpindex.WithRepartitionPolicy(policy)); err == nil {
		s.Close()
		t.Error("Open with a NaN drift threshold succeeded")
	}

	if s, err := vpindex.Open(vpindex.WithPartitioner(vpindex.PartitionObjective(9))); !errors.Is(err, vpindex.ErrUnsupported) {
		if s != nil {
			s.Close()
		}
		t.Errorf("Open with objective 9: %v, want ErrUnsupported", err)
	}
	s, err := vpindex.Open(vpindex.WithVelocitySample(axisSample(400, 0, 3)), vpindex.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, obj := range []vpindex.PartitionObjective{9, vpindex.ObjectiveAuto} {
		if err := s.RepartitionTo(obj); !errors.Is(err, vpindex.ErrUnsupported) {
			t.Errorf("RepartitionTo(%v) = %v, want ErrUnsupported", obj, err)
		}
		if an, _ := s.Analysis(); an.Kind != vpindex.ObjectiveDVA {
			t.Errorf("RepartitionTo(%v) installed %v", obj, an.Kind)
		}
	}
}
