package vpindex_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	vpindex "repro"
	"repro/internal/model"
)

// mixSample synthesizes the workload DVA cannot help with: directions
// uniform over the circle, speeds bimodal (slow walkers, fast highway).
func mixSample(n int, seed int64) []vpindex.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]vpindex.Vec2, n)
	for i := range out {
		s := 80 + rng.Float64()*40
		if rng.Float64() < 0.6 {
			s = 1 + rng.Float64()*2
		}
		ang := rng.Float64() * 2 * math.Pi
		out[i] = vpindex.V(s*math.Cos(ang), s*math.Sin(ang))
	}
	return out
}

func mixObject(id int, rng *rand.Rand) vpindex.Object {
	return vpindex.Object{
		ID:  vpindex.ObjectID(id),
		Pos: vpindex.V(rng.Float64()*20000, rng.Float64()*20000),
		Vel: mixSample(1, rng.Int63())[0],
		T:   0,
	}
}

// oracleCheck drives the store and a freshly seeded BruteForce mirror
// through all three range-query kinds plus kNN and requires exact agreement.
func oracleCheck(t *testing.T, store *vpindex.Store, live map[vpindex.ObjectID]vpindex.Object, now float64, stage string) {
	t.Helper()
	oracle := model.NewBruteForce()
	for _, o := range live {
		if err := oracle.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != oracle.Len() {
		t.Fatalf("%s: len %d vs oracle %d", stage, store.Len(), oracle.Len())
	}
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 10; i++ {
		queries := []vpindex.RangeQuery{
			vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(rng.Float64()*20000, rng.Float64()*20000), R: 3000}, now, now+15),
			vpindex.IntervalQuery(vpindex.R(1000, 1000, 12000, 12000), now, now+5, now+25),
			vpindex.MovingQuery(vpindex.R(0, 0, 7000, 7000), vpindex.V(20, -10), now, now, now+30),
		}
		for _, q := range queries {
			got, err := store.Search(q)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			want, _ := oracle.Search(q)
			got, want = sortedIDs(got), sortedIDs(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s %v: got %v want %v", stage, q.Kind, got, want)
			}
		}
	}
	kq := vpindex.KNNQuery{Center: vpindex.V(10000, 10000), K: 8, Now: now, T: now + 20}
	got, err := store.SearchKNN(kq)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracle.SearchKNN(kq)
	if len(got) != len(want) {
		t.Fatalf("%s: kNN %d vs %d results", stage, len(got), len(want))
	}
	for i := range got {
		if d := got[i].Dist - want[i].Dist; d > 1e-6 || d < -1e-6 {
			t.Fatalf("%s: kNN %d dist %g vs %g", stage, i, got[i].Dist, want[i].Dist)
		}
	}
}

// TestStoreFixedObjectives pins WithPartitioner: the chosen objective runs
// every analysis, the partition layout matches it, and queries stay
// oracle-exact under each layout.
func TestStoreFixedObjectives(t *testing.T) {
	for _, tc := range []struct {
		obj   vpindex.PartitionObjective
		parts int
	}{
		{vpindex.ObjectiveSpeed, 2},
		{vpindex.ObjectiveNone, 1},
		{vpindex.ObjectiveDVA, 3},
	} {
		t.Run(tc.obj.String(), func(t *testing.T) {
			sample := testSample(800, 11)
			store, err := vpindex.Open(
				vpindex.WithKind(vpindex.Bx),
				vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
				vpindex.WithBufferPages(30),
				vpindex.WithShards(2),
				vpindex.WithPartitioner(tc.obj),
				vpindex.WithVelocitySample(sample),
				vpindex.WithSeed(5),
			)
			if err != nil {
				t.Fatal(err)
			}
			if !store.Partitioned() {
				t.Fatal("upfront sample did not partition the store")
			}
			an, ok := store.Analysis()
			if !ok || an.Kind != tc.obj {
				t.Fatalf("analysis kind %v, want %v", an.Kind, tc.obj)
			}
			if err := an.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := len(store.Partitions()); got != tc.parts {
				t.Fatalf("%d partitions, want %d", got, tc.parts)
			}
			rng := rand.New(rand.NewSource(31))
			live := map[vpindex.ObjectID]vpindex.Object{}
			for i := 1; i <= 400; i++ {
				o := testObject(i, rng)
				if err := store.Report(o); err != nil {
					t.Fatal(err)
				}
				live[o.ID] = o
			}
			for id := vpindex.ObjectID(3); id <= 400; id += 11 {
				if err := store.Remove(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			}
			oracleCheck(t, store, live, 0, tc.obj.String())
		})
	}

	// WithPartitioner alone implies velocity partitioning.
	s, err := vpindex.Open(vpindex.WithPartitioner(vpindex.ObjectiveSpeed))
	if err != nil {
		t.Fatal(err)
	}
	if _, target := s.BootstrapProgress(); target == 0 {
		t.Fatal("WithPartitioner alone should enable the VP bootstrap")
	}
}

// TestStoreAutoObjectiveChooser pins WithPartitioner(ObjectiveAuto): on an axis-bundle
// workload the chooser installs DVA partitions, on an isotropic speed
// mixture it installs speed bands, and the query-shape log feeds it real
// workload evidence.
func TestStoreAutoObjectiveChooser(t *testing.T) {
	open := func(sample []vpindex.Vec2) *vpindex.Store {
		t.Helper()
		s, err := vpindex.Open(
			vpindex.WithKind(vpindex.Bx),
			vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
			vpindex.WithBufferPages(30),
			vpindex.WithShards(2),
			vpindex.WithPartitioner(vpindex.ObjectiveAuto),
			vpindex.WithVelocitySample(sample),
			vpindex.WithSeed(5),
		)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	axis := open(axisSample(800, 0, 12))
	if an, _ := axis.Analysis(); an.Kind != vpindex.ObjectiveDVA {
		t.Fatalf("axis bundle chose %v, want dva", an.Kind)
	}
	mixed := open(mixSample(800, 13))
	if an, _ := mixed.Analysis(); an.Kind != vpindex.ObjectiveSpeed {
		t.Fatalf("speed mixture chose %v, want speed", an.Kind)
	}

	// Queries populate the bounded shape log the cost model reads.
	if mixed.QueryLogSize() != 0 {
		t.Fatal("query log should start empty")
	}
	for i := 0; i < 40; i++ {
		q := vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(5000, 5000), R: 1500}, 0, 10)
		if _, err := mixed.Search(q); err != nil {
			t.Fatal(err)
		}
		if _, err := mixed.SearchKNN(vpindex.KNNQuery{Center: vpindex.V(8000, 8000), K: 3, Now: 0, T: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if n := mixed.QueryLogSize(); n != 80 {
		t.Fatalf("query log holds %d shapes, want 80", n)
	}

	// A chooser-driven repartition over unchanged traffic keeps the layout:
	// the stickiness multiplier stops near-ties from flapping. The analysis
	// samples the live objects, so the mixture reports first.
	rng := rand.New(rand.NewSource(13))
	for i := 1; i <= 800; i++ {
		if err := mixed.Report(mixObject(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mixed.Repartition(); err != nil {
		t.Fatal(err)
	}
	if an, _ := mixed.Analysis(); an.Kind != vpindex.ObjectiveSpeed {
		t.Fatalf("repartition flapped to %v", an.Kind)
	}
}

// TestStoreRepartitionTo drives the manual objective ladder on a live store
// — DVA -> speed -> none -> DVA — checking the installed layout, the
// maintenance events, and oracle-exact queries after every swap.
func TestStoreRepartitionTo(t *testing.T) {
	var (
		evMu sync.Mutex
		evs  []vpindex.MaintenanceEvent
	)
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(mixSample(600, 21)),
		vpindex.WithMaintenanceHook(func(ev vpindex.MaintenanceEvent) {
			evMu.Lock()
			evs = append(evs, ev)
			evMu.Unlock()
		}),
		vpindex.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	live := map[vpindex.ObjectID]vpindex.Object{}
	for i := 1; i <= 500; i++ {
		o := mixObject(i, rng)
		if err := store.Report(o); err != nil {
			t.Fatal(err)
		}
		live[o.ID] = o
	}
	for _, obj := range []vpindex.PartitionObjective{
		vpindex.ObjectiveSpeed, vpindex.ObjectiveNone, vpindex.ObjectiveDVA,
	} {
		if err := store.RepartitionTo(obj); err != nil {
			t.Fatalf("RepartitionTo(%v): %v", obj, err)
		}
		an, ok := store.Analysis()
		if !ok || an.Kind != obj {
			t.Fatalf("after RepartitionTo(%v): analysis kind %v", obj, an.Kind)
		}
		if err := an.Validate(); err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, store, live, 0, "repartition-to-"+obj.String())
	}
	if n := store.Stats().Repartitions; n != 3 {
		t.Fatalf("stats count %d repartitions, want 3", n)
	}
	evMu.Lock()
	defer evMu.Unlock()
	var swaps []vpindex.PartitionObjective
	for _, ev := range evs {
		if ev.Op == vpindex.MaintRepartition && ev.Swapped {
			swaps = append(swaps, ev.Objective)
		}
	}
	want := []vpindex.PartitionObjective{vpindex.ObjectiveSpeed, vpindex.ObjectiveNone, vpindex.ObjectiveDVA}
	if fmt.Sprint(swaps) != fmt.Sprint(want) {
		t.Fatalf("swap events carried objectives %v, want %v", swaps, want)
	}
}

// TestStoreCrossObjectiveSwapStormOracle is the refactor's strongest
// concurrency oracle: writers and readers hammer a sharded store while a
// maintenance goroutine forces the partitions through the full objective
// ladder (DVA -> speed -> none -> DVA) mid-traffic. After the storm the
// merged writer states seed a BruteForce mirror and the store must agree
// exactly on Len, Get, Search, and kNN distances.
func TestStoreCrossObjectiveSwapStormOracle(t *testing.T) {
	const (
		writers   = 4
		readers   = 2
		perWriter = 400
		idsPer    = 500
	)
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(4),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(testSample(800, 11)),
		vpindex.WithSeed(6),
	)
	if err != nil {
		t.Fatal(err)
	}

	var (
		written atomic.Int64
		wg      sync.WaitGroup
	)
	final := make([]map[vpindex.ObjectID]*vpindex.Object, writers)
	errs := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		final[w] = make(map[vpindex.ObjectID]*vpindex.Object)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + w)))
			base := w * idsPer
			for i := 0; i < perWriter; i++ {
				id := base + 1 + rng.Intn(idsPer)
				o := testObject(id, rng)
				o.T = float64(i) / 8
				if i%9 == 8 {
					err := store.Remove(o.ID)
					if err != nil && !errors.Is(err, vpindex.ErrNotFound) {
						errs <- fmt.Errorf("writer %d remove: %w", w, err)
						return
					}
					if err == nil {
						delete(final[w], o.ID)
					}
					continue
				}
				if err := store.Report(o); err != nil {
					errs <- fmt.Errorf("writer %d report: %w", w, err)
					return
				}
				final[w][o.ID] = &o
				written.Add(1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(800 + r)))
			for i := 0; i < 200; i++ {
				now := float64(i) / 4
				q := vpindex.SliceQuery(vpindex.Circle{
					C: vpindex.V(rng.Float64()*20000, rng.Float64()*20000), R: 3000,
				}, now, now+10)
				if _, err := store.Search(q); err != nil {
					errs <- fmt.Errorf("reader %d search: %w", r, err)
					return
				}
				if _, err := store.SearchKNN(vpindex.KNNQuery{
					Center: vpindex.V(rng.Float64()*20000, rng.Float64()*20000),
					K:      5, Now: now, T: now + 10,
				}); err != nil {
					errs <- fmt.Errorf("reader %d knn: %w", r, err)
					return
				}
				store.Get(vpindex.ObjectID(1 + rng.Intn(writers*idsPer)))
				store.Len()
				store.Partitions()
				store.QueryLogSize()
			}
		}(r)
	}
	// The maintenance goroutine walks the objective ladder at roughly one
	// quarter, one half, and three quarters of the write volume, racing the
	// writers and readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		total := int64(writers * perWriter)
		ladder := []vpindex.PartitionObjective{
			vpindex.ObjectiveSpeed, vpindex.ObjectiveNone, vpindex.ObjectiveDVA,
		}
		for step, obj := range ladder {
			for written.Load() < total*int64(step+1)/4 {
				time.Sleep(time.Millisecond)
			}
			if err := store.RepartitionTo(obj); err != nil {
				errs <- fmt.Errorf("RepartitionTo(%v): %w", obj, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := store.Stats().Repartitions; n < 3 {
		t.Fatalf("expected the three ladder swaps, got %d", n)
	}
	if err := store.LastMaintenanceError(); err != nil {
		t.Fatalf("maintenance error after storm: %v", err)
	}
	if an, _ := store.Analysis(); an.Kind != vpindex.ObjectiveDVA {
		t.Fatalf("ladder should end on dva, got %v", an.Kind)
	}

	// Quiescent oracle comparison against the merged final states.
	oracle := model.NewBruteForce()
	for w := range final {
		for _, o := range final[w] {
			if err := oracle.Insert(*o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if store.Len() != oracle.Len() {
		t.Fatalf("len %d vs oracle %d", store.Len(), oracle.Len())
	}
	for id := 1; id <= writers*idsPer; id++ {
		g, gok := store.Get(vpindex.ObjectID(id))
		w, wok := oracle.Get(vpindex.ObjectID(id))
		if gok != wok || (gok && g != w) {
			t.Fatalf("get %d: (%v,%v) vs oracle (%v,%v)", id, g, gok, w, wok)
		}
	}
	rng := rand.New(rand.NewSource(57))
	now := float64(perWriter) / 8
	for i := 0; i < 12; i++ {
		queries := []vpindex.RangeQuery{
			vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(rng.Float64()*20000, rng.Float64()*20000), R: 2500}, now, now+20),
			vpindex.IntervalQuery(vpindex.R(2000, 2000, 9000, 9000), now, now+5, now+25),
			vpindex.MovingQuery(vpindex.R(0, 0, 6000, 6000), vpindex.V(30, 10), now, now, now+30),
		}
		for _, q := range queries {
			got, err := store.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			got, want = sortedIDs(got), sortedIDs(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v: got %v want %v", q.Kind, got, want)
			}
		}
	}
	q := vpindex.KNNQuery{Center: vpindex.V(10000, 10000), K: 10, Now: now, T: now + 30}
	got, err := store.SearchKNN(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracle.SearchKNN(q)
	if len(got) != len(want) {
		t.Fatalf("kNN %d vs %d results", len(got), len(want))
	}
	for i := range got {
		if diff := got[i].Dist - want[i].Dist; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("kNN %d: dist %g vs %g", i, got[i].Dist, want[i].Dist)
		}
	}
}
