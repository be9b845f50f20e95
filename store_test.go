package vpindex_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	vpindex "repro"
	"repro/internal/model"
)

// storeConfigs enumerates the Store configurations under test. The auto
// variants bootstrap their partitions online partway through each test's
// report stream.
func storeConfigs() map[string][]vpindex.Option {
	domain := vpindex.R(0, 0, 20000, 20000)
	base := func(k vpindex.Kind) []vpindex.Option {
		return []vpindex.Option{
			vpindex.WithKind(k),
			vpindex.WithDomain(domain),
			vpindex.WithBufferPages(30),
		}
	}
	sample := testSample(800, 11)
	return map[string][]vpindex.Option{
		"tpr":        base(vpindex.TPRStar),
		"bx":         base(vpindex.Bx),
		"tpr-vp":     append(base(vpindex.TPRStar), vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(sample), vpindex.WithSeed(5)),
		"bx-vp":      append(base(vpindex.Bx), vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(sample), vpindex.WithSeed(5)),
		"tpr-vpauto": append(base(vpindex.TPRStar), vpindex.WithVelocityPartitioning(2), vpindex.WithAutoPartition(250), vpindex.WithSeed(5)),
		"bx-vpauto":  append(base(vpindex.Bx), vpindex.WithVelocityPartitioning(2), vpindex.WithAutoPartition(250), vpindex.WithSeed(5)),
	}
}

// testSample synthesizes a two-DVA velocity distribution.
func testSample(n int, seed int64) []vpindex.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]vpindex.Vec2, n)
	for i := range out {
		speed := 20 + rng.Float64()*60
		if rng.Intn(2) == 0 {
			speed = -speed
		}
		switch i % 7 {
		case 6: // outlier
			out[i] = vpindex.V(rng.Float64()*120-60, rng.Float64()*120-60)
		case 0, 2, 4:
			out[i] = vpindex.V(speed, rng.NormFloat64()*2)
		default:
			out[i] = vpindex.V(rng.NormFloat64()*2, speed)
		}
	}
	return out
}

// testObject builds a mover whose velocity follows the testSample
// distribution.
func testObject(id int, rng *rand.Rand) vpindex.Object {
	vels := testSample(1, rng.Int63())
	return vpindex.Object{
		ID:  vpindex.ObjectID(id),
		Pos: vpindex.V(rng.Float64()*20000, rng.Float64()*20000),
		Vel: vels[0],
		T:   0,
	}
}

func sortedIDs(ids []vpindex.ObjectID) []vpindex.ObjectID {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// TestStoreRoundTripOracle drives every Store configuration with the same
// randomized Report/Remove stream as a BruteForce oracle and requires
// identical Search results, Get state, and Len at every checkpoint.
func TestStoreRoundTripOracle(t *testing.T) {
	for name, opts := range storeConfigs() {
		t.Run(name, func(t *testing.T) {
			store, err := vpindex.Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			oracle := model.NewBruteForce()
			rng := rand.New(rand.NewSource(77))

			report := func(o vpindex.Object) {
				t.Helper()
				if err := store.Report(o); err != nil {
					t.Fatalf("report %d: %v", o.ID, err)
				}
				if _, ok := oracle.Get(o.ID); ok {
					_ = oracle.Delete(vpindex.Object{ID: o.ID})
				}
				_ = oracle.Insert(o)
			}
			check := func(now float64) {
				t.Helper()
				queries := []vpindex.RangeQuery{
					vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(rng.Float64()*20000, rng.Float64()*20000), R: 2500}, now, now+20),
					vpindex.IntervalQuery(vpindex.R(2000, 2000, 9000, 9000), now, now+5, now+25),
					vpindex.MovingQuery(vpindex.R(0, 0, 4000, 4000), vpindex.V(30, 10), now, now, now+30),
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
						t.Fatalf("%v at t=%g: got %v want %v", q.Kind, now, got, want)
					}
				}
				if store.Len() != oracle.Len() {
					t.Fatalf("len %d vs oracle %d", store.Len(), oracle.Len())
				}
			}

			// Load 400 objects (crosses the 250-report auto threshold).
			for i := 1; i <= 400; i++ {
				report(testObject(i, rng))
			}
			check(0)
			// Re-report (upsert) a third of them at t=10, remove some,
			// report new ones.
			for i := 1; i <= 400; i += 3 {
				o := testObject(i, rng)
				o.T = 10
				report(o)
			}
			for i := 2; i <= 400; i += 10 {
				if err := store.Remove(vpindex.ObjectID(i)); err != nil {
					t.Fatalf("remove %d: %v", i, err)
				}
				_ = oracle.Delete(vpindex.Object{ID: vpindex.ObjectID(i)})
			}
			for i := 401; i <= 450; i++ {
				o := testObject(i, rng)
				o.T = 10
				report(o)
			}
			check(10)

			// Get agrees with the oracle's record.
			for i := 1; i <= 450; i += 17 {
				g, gok := store.Get(vpindex.ObjectID(i))
				w, wok := oracle.Get(vpindex.ObjectID(i))
				if gok != wok || (gok && g != w) {
					t.Fatalf("get %d: (%v,%v) vs oracle (%v,%v)", i, g, gok, w, wok)
				}
			}

			// kNN agrees with the oracle on distances.
			q := vpindex.KNNQuery{Center: vpindex.V(10000, 10000), K: 10, Now: 10, T: 40}
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
		})
	}
}

// TestStoreAutoPartitionBootstrap pins the cutover semantics: the Store
// stays in staging until exactly the threshold, then migrates every live
// object; Len and Search are consistent on both sides of the cutover.
func TestStoreAutoPartitionBootstrap(t *testing.T) {
	for _, kind := range []vpindex.Kind{vpindex.TPRStar, vpindex.Bx} {
		t.Run(kind.String(), func(t *testing.T) {
			const threshold = 200
			store, err := vpindex.Open(
				vpindex.WithKind(kind),
				vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
				vpindex.WithVelocityPartitioning(2),
				vpindex.WithAutoPartition(threshold),
				vpindex.WithSeed(3),
			)
			if err != nil {
				t.Fatal(err)
			}
			if store.Partitioned() {
				t.Fatal("partitioned before any report")
			}
			if _, ok := store.Analysis(); ok {
				t.Fatal("analysis before bootstrap")
			}

			rng := rand.New(rand.NewSource(9))
			objs := make([]vpindex.Object, threshold+100)
			for i := range objs {
				objs[i] = testObject(i+1, rng)
			}
			q := vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(10000, 10000), R: 6000}, 0, 30)

			// One below the threshold: still staging.
			if err := store.ReportBatch(objs[:threshold-1]); err != nil {
				t.Fatal(err)
			}
			if store.Partitioned() {
				t.Fatal("partitioned below threshold")
			}
			if c, target := store.BootstrapProgress(); c != threshold-1 || target != threshold {
				t.Fatalf("progress %d/%d", c, target)
			}
			beforeIDs, err := store.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			beforeLen := store.Len()

			// The threshold report triggers analysis + live migration.
			if err := store.Report(objs[threshold-1]); err != nil {
				t.Fatal(err)
			}
			if !store.Partitioned() {
				t.Fatal("not partitioned at threshold")
			}
			an, ok := store.Analysis()
			if !ok || an.SampleSize != threshold || velocityFrames(an) != 2 {
				t.Fatalf("analysis after bootstrap: %+v ok=%v", an, ok)
			}
			if got := store.Len(); got != beforeLen+1 {
				t.Fatalf("len across cutover: %d -> %d", beforeLen, got)
			}
			if c, target := store.BootstrapProgress(); c != 0 || target != 0 {
				t.Fatalf("progress after cutover: %d/%d", c, target)
			}
			if n := len(store.Partitions()); n != 3 {
				t.Fatalf("partitions: %d", n)
			}

			// Search sees every pre-cutover object (the threshold report was
			// outside the query's reach only if it matches; recompute via
			// membership instead of equality).
			afterIDs, err := store.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			after := make(map[vpindex.ObjectID]bool, len(afterIDs))
			for _, id := range afterIDs {
				after[id] = true
			}
			for _, id := range beforeIDs {
				if !after[id] {
					t.Fatalf("object %d lost across cutover", id)
				}
			}

			// The tail lands directly in the partitions.
			if err := store.ReportBatch(objs[threshold:]); err != nil {
				t.Fatal(err)
			}
			if store.Len() != len(objs) {
				t.Fatalf("len after tail: %d", store.Len())
			}
		})
	}
}

// TestStorePartitionsRouteByAnalysis: after 20,000 reports every partition
// still reports its analysis frame's tau (what the benchmark's core.tau_max
// reads), and holds exactly the objects the analysis' router sends to it.
func TestStorePartitionsRouteByAnalysis(t *testing.T) {
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(4),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(testSample(800, 11)),
		vpindex.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(12))
	last := make(map[vpindex.ObjectID]vpindex.Object)
	batch := make([]vpindex.Object, 0, 500)
	for round := 0; round < 4; round++ {
		for id := 1; id <= 5000; id++ {
			o := testObject(id, rng)
			o.T = float64(round)
			last[o.ID] = o
			if batch = append(batch, o); len(batch) == cap(batch) {
				if err := store.ReportBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	an, ok := store.Analysis()
	if !ok {
		t.Fatal("store not partitioned")
	}
	want := make([]int, len(an.Frames))
	for _, o := range last {
		want[an.RouteVel(o.Vel)]++
	}
	parts := store.Partitions()
	if len(parts) != len(an.Frames) {
		t.Fatalf("%d partitions, analysis has %d frames", len(parts), len(an.Frames))
	}
	for i, p := range parts {
		if p.Tau != an.Frames[i].Tau {
			t.Fatalf("partition %d reports tau %g, analysis has %g", i, p.Tau, an.Frames[i].Tau)
		}
		if p.Size != want[i] {
			t.Fatalf("partition %d holds %d objects, the analysis routes %d there", i, p.Size, want[i])
		}
	}
}

// TestStoreConcurrentReportSearch exercises the Store's RWMutex under the
// race detector: concurrent writers streaming ID-keyed reports (crossing
// the auto-partition cutover mid-test) while readers run Search, SearchKNN,
// Get and Len.
func TestStoreConcurrentReportSearch(t *testing.T) {
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithAutoPartition(300),
		vpindex.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers       = 4
		readers       = 4
		perWriter     = 300
		idsPer        = 100 // each writer upserts its own ID range repeatedly
		readsPer      = 150
		removalsEvery = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			base := w * idsPer
			for i := 0; i < perWriter; i++ {
				id := base + 1 + rng.Intn(idsPer)
				o := testObject(id, rng)
				o.T = float64(i) / 10
				if err := store.Report(o); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if i%removalsEvery == removalsEvery-1 {
					if err := store.Remove(o.ID); err != nil && !errors.Is(err, vpindex.ErrNotFound) {
						errs <- fmt.Errorf("writer %d remove: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < readsPer; i++ {
				now := float64(i) / 5
				q := vpindex.SliceQuery(vpindex.Circle{
					C: vpindex.V(rng.Float64()*20000, rng.Float64()*20000), R: 3000,
				}, now, now+10)
				if _, err := store.Search(q); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
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
				store.Partitioned()
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !store.Partitioned() {
		t.Fatal("concurrent stream never crossed the bootstrap threshold")
	}
	if store.Len() == 0 {
		t.Fatal("store empty after concurrent stream")
	}
}

// TestStoreTypedErrors checks the errors.Is contract of the public surface.
func TestStoreTypedErrors(t *testing.T) {
	store, err := vpindex.Open(vpindex.WithKind(vpindex.Bx))
	if err != nil {
		t.Fatal(err)
	}
	o := vpindex.Object{ID: 1, Pos: vpindex.V(100, 100), Vel: vpindex.V(5, 5), T: 0}

	if err := store.Remove(1); !errors.Is(err, vpindex.ErrNotFound) {
		t.Fatalf("remove absent: %v", err)
	}
	if err := store.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(o); !errors.Is(err, vpindex.ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	// Report is an upsert: the same record is never a duplicate.
	if err := store.Report(o); err != nil {
		t.Fatalf("report existing: %v", err)
	}
	if err := store.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := store.Remove(1); !errors.Is(err, vpindex.ErrNotFound) {
		t.Fatalf("second remove: %v", err)
	}

	// A velocity-partitioned store behaves identically.
	vp, err := vpindex.Open(vpindex.WithVelocitySample(testSample(500, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if !vp.Partitioned() {
		t.Fatal("upfront sample did not partition")
	}
	if err := vp.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := vp.Insert(o); !errors.Is(err, vpindex.ErrDuplicate) {
		t.Fatalf("vp duplicate insert: %v", err)
	}
	if err := vp.Remove(99); !errors.Is(err, vpindex.ErrNotFound) {
		t.Fatalf("vp remove absent: %v", err)
	}

	// Config validation: an auto-partition sample smaller than k cannot
	// seed the analysis.
	if _, err := vpindex.Open(vpindex.WithVelocityPartitioning(3), vpindex.WithAutoPartition(2)); err == nil {
		t.Fatal("auto sample below k accepted")
	}
	// Neither can an upfront sample with fewer points than partitions.
	if _, err := vpindex.Open(vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample([]vpindex.Vec2{{X: 1}})); err == nil {
		t.Fatal("upfront sample below k accepted")
	}
}

// axisSample synthesizes velocities riding a single axis bundle (angle and
// angle+90°) with small Gaussian cross-axis jitter — a road grid that the
// repartition tests can rotate wholesale.
func axisSample(n int, angle float64, seed int64) []vpindex.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]vpindex.Vec2, n)
	for i := range out {
		a := angle
		if i%2 == 1 {
			a += math.Pi / 2
		}
		speed := 30 + rng.Float64()*60
		if rng.Intn(2) == 0 {
			speed = -speed
		}
		dir := vpindex.V(math.Cos(a), math.Sin(a))
		perp := vpindex.V(-dir.Y, dir.X)
		out[i] = dir.Scale(speed).Add(perp.Scale(rng.NormFloat64()))
	}
	return out
}

// axisObject builds a mover whose velocity follows axisSample's rotated
// grid.
func axisObject(id int, angle float64, rng *rand.Rand) vpindex.Object {
	v := axisSample(2, angle, rng.Int63())[id%2]
	return vpindex.Object{
		ID:  vpindex.ObjectID(id),
		Pos: vpindex.V(rng.Float64()*20000, rng.Float64()*20000),
		Vel: v,
		T:   0,
	}
}

// maxAxisAngle returns the largest angle (radians) between any DVA of the
// analysis and the closest axis of the bundle at the given angle.
func maxAxisAngle(t *testing.T, s *vpindex.Store, angle float64) float64 {
	t.Helper()
	an, ok := s.Analysis()
	if !ok {
		t.Fatal("store has no analysis")
	}
	worst := 0.0
	for _, d := range an.Frames {
		if d.IsOutlier {
			continue
		}
		best := math.Pi
		for k := 0; k < 2; k++ {
			a := angle + float64(k)*math.Pi/2
			axis := vpindex.V(math.Cos(a), math.Sin(a))
			cos := math.Abs(d.Axis.Normalize().Dot(axis))
			if cos > 1 {
				cos = 1
			}
			if ang := math.Acos(cos); ang < best {
				best = ang
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}

// TestStoreRepartitionManual drives the full manual repartition path: a
// store partitioned for one axis grid serves a population whose traffic has
// rotated 45°; Repartition must re-analyze the live objects' velocities,
// swap every shard to axes matching the new grid, preserve every record,
// and keep answering queries exactly.
func TestStoreRepartitionManual(t *testing.T) {
	const rotated = math.Pi / 4
	for _, kind := range []vpindex.Kind{vpindex.TPRStar, vpindex.Bx} {
		t.Run(kind.String(), func(t *testing.T) {
			store, err := vpindex.Open(
				vpindex.WithKind(kind),
				vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
				vpindex.WithBufferPages(30),
				vpindex.WithShards(3),
				vpindex.WithVelocityPartitioning(2),
				vpindex.WithVelocitySample(axisSample(600, 0, 8)),
				vpindex.WithSeed(5),
			)
			if err != nil {
				t.Fatal(err)
			}
			if drift := maxAxisAngle(t, store, 0); drift > 0.15 {
				t.Fatalf("initial axes off the 0° grid by %g rad", drift)
			}

			// The whole fleet reports with rotated velocities.
			rng := rand.New(rand.NewSource(17))
			oracle := model.NewBruteForce()
			for i := 1; i <= 500; i++ {
				o := axisObject(i, rotated, rng)
				if err := store.Report(o); err != nil {
					t.Fatal(err)
				}
				_ = oracle.Insert(o)
			}
			if n := store.Stats().Repartitions; n != 0 {
				t.Fatalf("repartitions before trigger: %d", n)
			}

			if err := store.Repartition(); err != nil {
				t.Fatal(err)
			}
			if err := store.LastMaintenanceError(); err != nil {
				t.Fatalf("maintenance error after successful repartition: %v", err)
			}
			if n := store.Stats().Repartitions; n != 1 {
				t.Fatalf("repartitions after trigger: %d", n)
			}
			if drift := maxAxisAngle(t, store, rotated); drift > 0.15 {
				t.Fatalf("axes off the rotated grid by %g rad after repartition", drift)
			}
			if store.Len() != oracle.Len() {
				t.Fatalf("len %d vs oracle %d across repartition", store.Len(), oracle.Len())
			}
			// Partition sizes reflect the new epoch and sum to the population.
			total := 0
			for _, p := range store.Partitions() {
				total += p.Size
			}
			if total != oracle.Len() {
				t.Fatalf("partition sizes sum to %d, want %d", total, oracle.Len())
			}

			// Every verb still agrees with the oracle.
			for i := 1; i <= 500; i += 13 {
				g, gok := store.Get(vpindex.ObjectID(i))
				w, wok := oracle.Get(vpindex.ObjectID(i))
				if gok != wok || g != w {
					t.Fatalf("get %d after repartition: (%v,%v) vs (%v,%v)", i, g, gok, w, wok)
				}
			}
			for trial := 0; trial < 12; trial++ {
				q := vpindex.SliceQuery(vpindex.Circle{
					C: vpindex.V(rng.Float64()*20000, rng.Float64()*20000), R: 2500,
				}, 0, rng.Float64()*40)
				got, err := store.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := oracle.Search(q)
				got, want = sortedIDs(got), sortedIDs(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("search after repartition: got %v want %v", got, want)
				}
			}
			// Writes keep flowing into the new partitions.
			for i := 501; i <= 550; i++ {
				if err := store.Report(axisObject(i, rotated, rng)); err != nil {
					t.Fatal(err)
				}
			}
			if store.Len() != 550 {
				t.Fatalf("len after post-repartition reports: %d", store.Len())
			}
		})
	}
}

// TestStoreAutoRepartition exercises the automatic drift policy end to end:
// once traffic rotates, the cadence-triggered background check must detect
// the drift, swap the partitions without any write ever failing, and leave
// the store aligned with the new grid.
func TestStoreAutoRepartition(t *testing.T) {
	const rotated = math.Pi / 4
	var (
		hookMu sync.Mutex
		events []vpindex.MaintenanceEvent
	)
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(axisSample(400, 0, 8)),
		// The drift threshold sits below the test's 0.15 rad convergence
		// bound, so axes a swap leaves off the grid by more than the bound
		// trigger the follow-up swap that corrects them.
		vpindex.WithRepartitionPolicy(vpindex.RepartitionPolicy{
			Every:          150,
			DriftThreshold: 0.12,
		}),
		vpindex.WithMaintenanceHook(func(ev vpindex.MaintenanceEvent) {
			hookMu.Lock()
			events = append(events, ev)
			hookMu.Unlock()
		}),
		vpindex.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Stream rotated traffic one cadence trip (150 reports) at a time,
	// stepping the maintenance loop after each, until the drift checks have
	// swapped the partitions AND the axes have converged on the rotated grid:
	// every check samples the live objects, all of which move on the rotated
	// grid (the upfront sample is not an object). The property to pin is
	// convergence, within a generous number of trips.
	rng := rand.New(rand.NewSource(33))
	id := 0
	for trip := 0; store.Stats().Repartitions == 0 || maxAxisAngle(t, store, rotated) > 0.15; trip++ {
		if trip == 100 {
			t.Fatalf("drift policy never converged in %d trips: %d swaps, axes %g rad off",
				trip, store.Stats().Repartitions, maxAxisAngle(t, store, rotated))
		}
		for i := 0; i < 150; i++ {
			id++
			if err := store.Report(axisObject(id%800+1, rotated, rng)); err != nil {
				t.Fatalf("report during drift: %v", err)
			}
		}
		store.MaintainNow()
	}
	// The check that swapped has finished, its hook call included.
	hookMu.Lock()
	var swap *vpindex.MaintenanceEvent
	for i := range events {
		if events[i].Op == vpindex.MaintRepartition && events[i].Swapped {
			swap = &events[i]
		}
	}
	hookMu.Unlock()
	switch {
	case swap == nil:
		t.Fatal("no swapped repartition event reached the hook")
	case swap.Err != nil:
		t.Fatalf("swap event carries error: %v", swap.Err)
	case swap.Drift <= 0.12:
		t.Fatalf("swap fired below threshold: drift %g", swap.Drift)
	}
	if err := store.LastMaintenanceError(); err != nil {
		t.Fatalf("maintenance error after adaptive swap: %v", err)
	}
	if drift := maxAxisAngle(t, store, rotated); drift > 0.15 {
		t.Fatalf("axes off the rotated grid by %g rad after adaptive swap", drift)
	}
}

// TestStoreMaintenanceFailureDecoupled pins the error contract of ISSUE 3:
// a failing background analysis (here: a store of one object, too few to
// form k partitions) must never surface through Report, must be visible via
// LastMaintenanceError and the hook, and must not wedge the repartition
// cadence — it keeps re-arming, producing one fresh failed check per trip.
func TestStoreMaintenanceFailureDecoupled(t *testing.T) {
	var (
		hookMu   sync.Mutex
		failures int
	)
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(1),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(axisSample(300, 0, 8)),
		vpindex.WithRepartitionPolicy(vpindex.RepartitionPolicy{
			Every:          50,
			DriftThreshold: 0.2,
		}),
		vpindex.WithMaintenanceHook(func(ev vpindex.MaintenanceEvent) {
			hookMu.Lock()
			if ev.Err != nil {
				failures++
			}
			hookMu.Unlock()
		}),
		vpindex.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// The manual trigger reports the analysis failure synchronously...
	if err := store.Repartition(); err == nil {
		t.Fatal("repartition of an empty store should fail")
	}
	if err := store.LastMaintenanceError(); err == nil {
		t.Fatal("LastMaintenanceError nil after failed repartition")
	}

	// ...but the write path never sees it, however many cadence trips fire:
	// every Report must return nil, and each trip, stepped by MaintainNow,
	// adds exactly one failed check (the trigger re-arms after each failure).
	rng := rand.New(rand.NewSource(44))
	for trip := 1; trip <= 3; trip++ {
		for i := 0; i < 50; i++ {
			if err := store.Report(axisObject(1, 0, rng)); err != nil {
				t.Fatalf("report surfaced a maintenance error: %v", err)
			}
		}
		store.MaintainNow()
		hookMu.Lock()
		n := failures
		hookMu.Unlock()
		if n != 1+trip {
			t.Fatalf("after %d cadence trips: %d failed actions, want %d (the manual one and one check per trip)", trip, n, 1+trip)
		}
	}
	if err := store.LastMaintenanceError(); err == nil {
		t.Fatal("LastMaintenanceError nil while checks keep failing")
	}
	if n := store.Stats().Repartitions; n != 0 {
		t.Fatalf("failed checks still swapped partitions: %d", n)
	}
	if !store.Partitioned() {
		t.Fatal("store lost its partitions over failed maintenance")
	}
}

// TestStoreRepartitionRetiresOldEpochs pins the resource contract of
// repeated swaps: each repartition retires the previous generation's
// buffer pools and frees its indexes' disk pages, so the live pool set and
// the simulated disk stay bounded however many swaps run — while the I/O
// counters stay cumulative and monotonic.
func TestStoreRepartitionRetiresOldEpochs(t *testing.T) {
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(20),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(axisSample(400, 0, 8)),
		vpindex.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	for i := 1; i <= 400; i++ {
		if err := store.Report(axisObject(i, 0, rng)); err != nil {
			t.Fatal(err)
		}
	}
	// 2 DVA + outlier partitions, one pool each, whatever WithShards is.
	wantPools := 3
	if got := len(store.Pools()); got != wantPools {
		t.Fatalf("live pools after bootstrap: %d, want %d", got, wantPools)
	}
	disk := store.Pools()[0].Disk()

	var pagesAfterFirst int
	prev := store.Stats()
	for swap := 1; swap <= 4; swap++ {
		angle := float64(swap) * math.Pi / 7
		for i := 1; i <= 400; i++ {
			if err := store.Report(axisObject(i, angle, rng)); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Repartition(); err != nil {
			t.Fatal(err)
		}
		if got := len(store.Pools()); got != wantPools {
			t.Fatalf("live pools after swap %d: %d, want %d", swap, got, wantPools)
		}
		st := store.Stats()
		if st.Reads < prev.Reads || st.Writes < prev.Writes || st.Hits < prev.Hits {
			t.Fatalf("stats regressed across swap %d: %+v -> %+v", swap, prev, st)
		}
		prev = st
		if swap == 1 {
			pagesAfterFirst = disk.NumPages()
		} else if pages := disk.NumPages(); pages > pagesAfterFirst*2 {
			t.Fatalf("disk grows across swaps: %d pages after swap 1, %d after swap %d",
				pagesAfterFirst, pages, swap)
		}
	}
	if n := store.Stats().Repartitions; n != 4 {
		t.Fatalf("repartitions: %d", n)
	}
	if store.Len() != 400 {
		t.Fatalf("population changed across swaps: %d", store.Len())
	}
}

// onAxis builds a mover travelling along the axis at angle, either way, at
// 30–90 m/ts with unit-σ perpendicular noise.
func onAxis(id int, angle float64, rng *rand.Rand) vpindex.Object {
	dir := vpindex.V(math.Cos(angle), math.Sin(angle))
	speed := 30 + rng.Float64()*60
	if rng.Intn(2) == 0 {
		speed = -speed
	}
	return vpindex.Object{
		ID:  vpindex.ObjectID(id),
		Pos: vpindex.V(rng.Float64()*20000, rng.Float64()*20000),
		Vel: dir.Scale(speed).Add(vpindex.V(-dir.Y, dir.X).Scale(rng.NormFloat64())),
	}
}

// axisGap is the angle (radians, in [0, π/2]) between an axis and the
// direction at angle.
func axisGap(axis vpindex.Vec2, angle float64) float64 {
	return math.Acos(min(1, math.Abs(axis.Normalize().Dot(vpindex.V(math.Cos(angle), math.Sin(angle))))))
}

// TestAnalysisSamplesObjectsNotReports pins that the analysis samples the
// live objects, one velocity each, not the stream of reports: 100 objects
// reporting 20 times each weigh 100 in the bootstrap's sample, not 2,000, so
// the 900 objects of the other axis keep the larger partition.
func TestAnalysisSamplesObjectsNotReports(t *testing.T) {
	const axisA, axisB = 0.0, math.Pi / 3
	var evs []vpindex.MaintenanceEvent
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithAutoPartition(2900),
		vpindex.WithMaintenanceHook(func(ev vpindex.MaintenanceEvent) { evs = append(evs, ev) }),
		vpindex.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for id := 1; id <= 900; id++ {
		if err := store.Report(onAxis(id, axisA, rng)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		for id := 901; id <= 1000; id++ {
			if err := store.Report(onAxis(id, axisB, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(evs) != 1 || evs[0].Op != vpindex.MaintBootstrap || evs[0].Err != nil || !evs[0].Swapped {
		t.Fatalf("bootstrap events: %+v", evs)
	}
	if evs[0].SampleSize != 1000 {
		t.Fatalf("bootstrap sampled %d velocities, want one per object: 1000", evs[0].SampleSize)
	}
	parts := store.Partitions()
	nearest := func(angle float64) int {
		best, gap := -1, math.Inf(1)
		for i, p := range parts {
			if g := axisGap(p.Frame.Axis, angle); !p.Frame.IsOutlier && g < gap {
				best, gap = i, g
			}
		}
		return best
	}
	a, b := nearest(axisA), nearest(axisB)
	if parts[a].Size <= parts[b].Size {
		t.Fatalf("frame nearest A holds %d objects, frame nearest B %d: want A's larger (partitions %+v)",
			parts[a].Size, parts[b].Size, parts)
	}
}

// TestRepartitionForgetsRemovedObjects pins that a removed object's velocity
// no longer steers the analysis: after the objects on axis A are removed and
// others report on axis B, 90° away, Repartition finds no axis near A.
func TestRepartitionForgetsRemovedObjects(t *testing.T) {
	const axisA, axisB = 0.0, math.Pi / 2
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(axisSample(400, axisA, 8)),
		vpindex.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for id := 1; id <= 500; id++ {
		if err := store.Report(onAxis(id, axisA, rng)); err != nil {
			t.Fatal(err)
		}
	}
	for id := 1; id <= 500; id++ {
		if err := store.Remove(vpindex.ObjectID(id)); err != nil {
			t.Fatal(err)
		}
	}
	for id := 501; id <= 1000; id++ {
		if err := store.Report(onAxis(id, axisB, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Repartition(); err != nil {
		t.Fatal(err)
	}
	an, _ := store.Analysis()
	for _, f := range an.Frames {
		if g := axisGap(f.Axis, axisA); !f.IsOutlier && g < 0.15 {
			t.Fatalf("axis %v lies %g rad from the removed objects' axis", f.Axis, g)
		}
	}
}
