package vpindex_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	vpindex "repro"
	"repro/internal/model"
)

// TestStoreConcurrentMixedOracle hammers a sharded Store with a concurrent
// mixed workload — ID-keyed reports and removes from writers owning
// disjoint ID ranges, with readers running Search/SearchKNN/Get/Len
// throughout — crossing the auto-partition cutover mid-stream. Each writer
// tracks the final state of its own IDs; after the storm the merged states
// seed a BruteForce mirror and the Store must agree with it exactly on
// Len, Get, Search (all three query kinds), and kNN distances.
func TestStoreConcurrentMixedOracle(t *testing.T) {
	const (
		writers   = 4
		readers   = 2
		perWriter = 400
		idsPer    = 500
		threshold = 600 // total reports cross this mid-stream
	)
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithAutoPartition(threshold),
		vpindex.WithSeed(6),
	)
	if err != nil {
		t.Fatal(err)
	}

	// final[w] is writer w's last-write-wins view of its own ID range;
	// disjoint ranges make the merged view deterministic despite scheduling.
	final := make([]map[vpindex.ObjectID]*vpindex.Object, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		final[w] = make(map[vpindex.ObjectID]*vpindex.Object)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
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
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + r)))
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
				store.BootstrapProgress()
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
	rng := rand.New(rand.NewSource(55))
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

// TestStoreParallelSearchMatchesSequential pins the fan-out contract: a
// Store probing shards and partitions with the parallel worker pools must
// return results byte-identical — same elements, same order — to an
// identically configured and identically loaded Store forced onto the
// strictly sequential path with WithSearchParallelism(1).
func TestStoreParallelSearchMatchesSequential(t *testing.T) {
	for _, kind := range []vpindex.Kind{vpindex.TPRStar, vpindex.Bx} {
		t.Run(kind.String(), func(t *testing.T) {
			open := func(searchPar int) *vpindex.Store {
				t.Helper()
				s, err := vpindex.Open(
					vpindex.WithKind(kind),
					vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
					vpindex.WithBufferPages(30),
					vpindex.WithShards(4),
					vpindex.WithSearchParallelism(searchPar),
					vpindex.WithVelocityPartitioning(2),
					vpindex.WithVelocitySample(testSample(800, 11)),
					vpindex.WithSeed(5),
				)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			par, seq := open(0), open(1)
			if runtime.GOMAXPROCS(0) == 1 {
				t.Log("GOMAXPROCS=1: parallel path degenerates to sequential; test still pins equality")
			}

			rng := rand.New(rand.NewSource(21))
			for i := 1; i <= 600; i++ {
				o := testObject(i, rng)
				if err := par.Report(o); err != nil {
					t.Fatal(err)
				}
				if err := seq.Report(o); err != nil {
					t.Fatal(err)
				}
			}
			for i := 3; i <= 600; i += 7 {
				if err := par.Remove(vpindex.ObjectID(i)); err != nil {
					t.Fatal(err)
				}
				if err := seq.Remove(vpindex.ObjectID(i)); err != nil {
					t.Fatal(err)
				}
			}

			for i := 0; i < 25; i++ {
				queries := []vpindex.RangeQuery{
					vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(rng.Float64()*20000, rng.Float64()*20000), R: 3000}, 0, 25),
					vpindex.IntervalQuery(vpindex.R(rng.Float64()*10000, rng.Float64()*10000, 15000, 15000), 0, 5, 25),
					vpindex.MovingQuery(vpindex.R(0, 0, 5000, 5000), vpindex.V(40, 20), 0, 0, 30),
				}
				for _, q := range queries {
					got, err := par.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := seq.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%v: parallel %v != sequential %v", q.Kind, got, want)
					}
				}
				kq := vpindex.KNNQuery{
					Center: vpindex.V(rng.Float64()*20000, rng.Float64()*20000),
					K:      8, Now: 0, T: 20,
				}
				got, err := par.SearchKNN(kq)
				if err != nil {
					t.Fatal(err)
				}
				want, err := seq.SearchKNN(kq)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("kNN: parallel %v != sequential %v", got, want)
				}
			}
		})
	}
}

// TestStoreShardsOption pins WithShards semantics: the default tracks
// GOMAXPROCS, explicit counts are honored, and non-positive counts fall
// back to the default.
func TestStoreShardsOption(t *testing.T) {
	s, err := vpindex.Open()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.NumShards(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default shards %d, want GOMAXPROCS %d", got, want)
	}
	for _, n := range []int{1, 3, 16} {
		s, err := vpindex.Open(vpindex.WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		if s.NumShards() != n {
			t.Fatalf("WithShards(%d): got %d", n, s.NumShards())
		}
	}
	s, err = vpindex.Open(vpindex.WithShards(-2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.NumShards(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("WithShards(-2): got %d, want %d", got, want)
	}
}

// TestStoreConcurrentRepartitionOracle mirrors the bootstrap-cutover oracle
// across the other migration: writers with disjoint ID ranges whose traffic
// rotates 45° mid-storm, readers running Search/SearchKNN/Get/Len
// throughout, while repartition swaps (manual triggers plus the automatic
// drift policy) rebuild every shard's partitions live. After the storm the
// merged writer states seed a BruteForce mirror and the Store must agree
// exactly on Len, Get, Search and kNN distances.
func TestStoreConcurrentRepartitionOracle(t *testing.T) {
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
		vpindex.WithVelocitySample(axisSample(500, 0, 12)),
		vpindex.WithRepartitionPolicy(vpindex.RepartitionPolicy{
			Every:          300,
			DriftThreshold: 0.3,
		}),
		vpindex.WithSeed(6),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

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
			rng := rand.New(rand.NewSource(int64(500 + w)))
			base := w * idsPer
			for i := 0; i < perWriter; i++ {
				id := base + 1 + rng.Intn(idsPer)
				// Traffic rotates 45° halfway through the storm.
				angle := 0.0
				if i >= perWriter/2 {
					angle = math.Pi / 4
				}
				o := axisObject(id, angle, rng)
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
			rng := rand.New(rand.NewSource(int64(600 + r)))
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
				store.Stats()
			}
		}(r)
	}
	// A maintenance goroutine forces two manual swaps mid-storm (at roughly
	// one-third and two-thirds of the write volume), racing the writers,
	// readers, and any automatic drift checks the policy fires.
	wg.Add(1)
	go func() {
		defer wg.Done()
		total := int64(writers * perWriter)
		for _, frac := range []int64{3, 2} {
			for written.Load() < total/frac {
				time.Sleep(time.Millisecond)
			}
			if err := store.Repartition(); err != nil {
				errs <- fmt.Errorf("manual repartition: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := store.Stats().Repartitions; n < 2 {
		t.Fatalf("expected at least the two manual swaps, got %d", n)
	}
	if err := store.LastMaintenanceError(); err != nil {
		t.Fatalf("maintenance error after storm: %v", err)
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
	rng := rand.New(rand.NewSource(56))
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

// TestStoreMigrationAtomicityOracle is the test the manager's lock hierarchy
// answers to. Every write migrates an object between partitions: flipper
// goroutines Report their own ids with the velocity cycling
// x-axis → y-axis → diagonal (dva0 → dva1 → outlier), batch writers send
// batches in which one id occurs three times and another twice with a
// different target partition each time, and churners Remove and Insert
// theirs — while readers issue whole-domain Search and SearchKNN(k =
// population) throughout, and a maintenance goroutine walks RepartitionTo
// through the objectives. Every id that is live throughout must appear
// exactly once in every answer, no id may appear twice, and at every
// quiescent point Len, the table (Get) and the indexes (whole-domain Search)
// agree with each other and with the brute-force mirror of the writers' own
// final records.
func TestStoreMigrationAtomicityOracle(t *testing.T) {
	const (
		flippers, batchers, churners, readers = 3, 2, 2, 2
		idsPer                                = 24
		rounds, steps                         = 4, 40
	)
	domain := vpindex.R(0, 0, 20000, 20000)
	store, err := vpindex.Open(vpindex.WithKind(vpindex.Bx), vpindex.WithDomain(domain), vpindex.WithBufferPages(30),
		vpindex.WithShards(4), vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(testSample(800, 11)), vpindex.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	// heading(p) routes to partition p%3 of the DVA layout.
	heading := func(p int, rng *rand.Rand) vpindex.Vec2 {
		s := 30 + rng.Float64()*40
		switch p % 3 {
		case 0:
			return vpindex.V(s, rng.NormFloat64())
		case 1:
			return vpindex.V(rng.NormFloat64(), s)
		default:
			return vpindex.V(s, s)
		}
	}
	object := func(id, p int, now float64, rng *rand.Rand) vpindex.Object {
		return vpindex.Object{ID: vpindex.ObjectID(id), Pos: vpindex.V(rng.Float64()*20000, rng.Float64()*20000),
			Vel: heading(p, rng), T: now}
	}
	writers := flippers + batchers + churners
	owned := make([]map[vpindex.ObjectID]vpindex.Object, writers) // each writer's own ids, live ones only
	var allIDs []vpindex.ObjectID
	stable := make(map[vpindex.ObjectID]bool) // live from the load to the end
	rng := rand.New(rand.NewSource(1))
	for w := range owned {
		owned[w] = make(map[vpindex.ObjectID]vpindex.Object)
		for i := 0; i < idsPer; i++ {
			o := object(w*idsPer+i+1, i, 0, rng)
			if err := store.Insert(o); err != nil {
				t.Fatal(err)
			}
			owned[w][o.ID] = o
			allIDs = append(allIDs, o.ID)
			stable[o.ID] = w < flippers+batchers
		}
	}
	whole := func(now float64) vpindex.RangeQuery {
		return vpindex.RectSliceQuery(vpindex.R(-1e6, -1e6, 1e6, 1e6), now, now)
	}
	// exactlyOnce checks one answer: no id twice, every stable id present.
	exactlyOnce := func(what string, ids []vpindex.ObjectID) error {
		seen := make(map[vpindex.ObjectID]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				return fmt.Errorf("%s: object %d answered twice", what, id)
			}
			seen[id] = true
		}
		for id, always := range stable {
			if always && !seen[id] {
				return fmt.Errorf("%s: live object %d missing from %d answers", what, id, len(ids))
			}
		}
		return nil
	}
	ladder := []vpindex.PartitionObjective{vpindex.ObjectiveSpeed, vpindex.ObjectiveNone, vpindex.ObjectiveDVA}
	for round := 0; round < rounds; round++ {
		var wg, rg sync.WaitGroup
		errs := make(chan error, writers+readers+1)
		stop := make(chan struct{})
		now := float64(round)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*round + w)))
				mine := owned[w]
				base := w * idsPer
				for i := 0; i < steps; i++ {
					id := base + 1 + rng.Intn(idsPer)
					var err error
					switch {
					case w < flippers: // every write turns the object: a migration
						o := object(id, round*steps+i, now, rng)
						err = store.Report(o)
						mine[o.ID] = o
					case w < flippers+batchers: // duplicates inside one batch, a different partition each time
						other := base + 1 + (id-base)%idsPer
						batch := []vpindex.Object{
							object(id, 0, now, rng), object(other, 1, now, rng), object(id, 1, now, rng),
							object(other, 2, now, rng), object(id, 2+i, now, rng),
						}
						err = store.ReportBatch(batch)
						mine[batch[3].ID], mine[batch[4].ID] = batch[3], batch[4]
					default: // remove, or strictly re-insert
						if old, live := mine[vpindex.ObjectID(id)]; live {
							err = store.Remove(old.ID)
							delete(mine, old.ID)
						} else {
							o := object(id, i, now, rng)
							err = store.Insert(o)
							mine[o.ID] = o
						}
					}
					if err != nil {
						errs <- fmt.Errorf("round %d writer %d step %d: %w", round, w, i, err)
						return
					}
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			rg.Add(1)
			go func(r int) {
				defer rg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						if n >= 5 {
							return
						}
					default:
					}
					ids, err := store.Search(whole(now))
					if err == nil {
						err = exactlyOnce("Search", ids)
					}
					if err != nil {
						errs <- err
						return
					}
					ns, err := store.SearchKNN(vpindex.KNNQuery{Center: vpindex.V(10000, 10000), K: len(allIDs), Now: now, T: now})
					if err == nil {
						ids = ids[:0]
						for _, nb := range ns {
							ids = append(ids, nb.ID)
						}
						err = exactlyOnce("SearchKNN", ids)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(r)
		}
		if round > 0 { // the swap storm: one objective change under each later round
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := store.RepartitionTo(ladder[round-1]); err != nil {
					errs <- fmt.Errorf("round %d RepartitionTo(%v): %w", round, ladder[round-1], err)
				}
			}()
		}
		wg.Wait()
		close(stop)
		rg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Quiescent: table, indexes and mirror agree.
		live := make(map[vpindex.ObjectID]vpindex.Object)
		for _, mine := range owned {
			for id, o := range mine {
				live[id] = o
			}
		}
		stage := fmt.Sprintf("after round %d", round)
		checkTableIndexAgree(t, store, domain, now, allIDs, len(live))
		for _, id := range allIDs {
			got, ok := store.Get(id)
			if want, live := live[id]; ok != live || got != want {
				t.Fatalf("%s: Get(%d) = %+v, %v; mirror %+v, %v", stage, id, got, ok, want, live)
			}
		}
		total := 0
		for _, p := range store.Partitions() {
			total += p.Size
		}
		if total != len(live) {
			t.Fatalf("%s: partition sizes sum to %d, want %d", stage, total, len(live))
		}
		oracleCheck(t, store, live, now, stage)
	}
	if st := store.Stats(); st.Repartitions != int64(len(ladder)) || len(store.Pools()) != 3 {
		t.Fatalf("%d repartitions, %d pools after the storm; want %d and 3", st.Repartitions, len(store.Pools()), len(ladder))
	}
}
