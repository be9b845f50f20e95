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
	"repro/internal/monitor"
)

// This file tests the write path every logging verb shares (Store.logged):
// concurrent-writer oracles over the live store, a reopen and every fsync
// kill point, and the per-verb logging contract.

// writerOpts is the base configuration for the concurrent-writer oracles: a
// sharded, velocity-partitioned Bx store.
func writerOpts(extra ...vpindex.Option) []vpindex.Option {
	opts := []vpindex.Option{
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(testSample(400, 19)),
		vpindex.WithSeed(7),
	}
	return append(opts, extra...)
}

// TestStoreConcurrentWritersDifferentialOracle is the write path's -race
// differential oracle: N concurrent writers drive the store with a mixed
// Report/Remove/Insert stream while a maintenance goroutine forces
// repartition swaps under the load; each writer owns a disjoint ID range, so
// replaying its interleaving through a brute-force shadow map is exact. The
// final store state must equal the shadow, and — for the durable variant,
// whose writers share fsyncs through the log's group commit — must survive a
// Close/reopen through the records in the log.
func TestStoreConcurrentWritersDifferentialOracle(t *testing.T) {
	const (
		writers   = 4
		perWriter = 300
		idsPer    = 200
	)
	run := func(t *testing.T, dir string) {
		extra := []vpindex.Option{}
		if dir != "" {
			extra = append(extra,
				vpindex.WithDataDir(dir),
				vpindex.WithSyncPolicy(vpindex.SyncGroupCommit(100*time.Microsecond)),
			)
		}
		store, err := vpindex.Open(writerOpts(extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg      sync.WaitGroup
			written atomic.Int64
		)
		shadow := make([]map[vpindex.ObjectID]vpindex.Object, writers)
		errs := make(chan error, writers+1)
		for w := 0; w < writers; w++ {
			shadow[w] = make(map[vpindex.ObjectID]vpindex.Object)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(900 + w)))
				base := w * idsPer
				for i := 0; i < perWriter; i++ {
					id := base + 1 + rng.Intn(idsPer)
					o := testObject(id, rng)
					o.T = float64(i) / 8
					switch {
					case i%23 == 11: // Remove
						err := store.Remove(o.ID)
						if err != nil && !errors.Is(err, vpindex.ErrNotFound) {
							errs <- fmt.Errorf("writer %d remove: %w", w, err)
							return
						}
						if err == nil {
							delete(shadow[w], o.ID)
						}
					case i%23 == 5: // Insert: strict duplicate
						err := store.Insert(o)
						if err != nil && !errors.Is(err, vpindex.ErrDuplicate) {
							errs <- fmt.Errorf("writer %d insert: %w", w, err)
							return
						}
						if err == nil {
							shadow[w][o.ID] = o
						}
					default:
						if err := store.Report(o); err != nil {
							errs <- fmt.Errorf("writer %d report: %w", w, err)
							return
						}
						shadow[w][o.ID] = o
					}
					written.Add(1)
				}
			}(w)
		}
		// Force repartition swaps under the writers, so records land across
		// epoch cutovers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			total := int64(writers * perWriter)
			for _, obj := range []vpindex.PartitionObjective{
				vpindex.ObjectiveSpeed, vpindex.ObjectiveDVA,
			} {
				for written.Load() < total/3 {
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

		verify := func(s *vpindex.Store, when string) {
			t.Helper()
			want := map[vpindex.ObjectID]vpindex.Object{}
			for w := range shadow {
				for id, o := range shadow[w] {
					want[id] = o
				}
			}
			if s.Len() != len(want) {
				t.Fatalf("%s: len = %d, want %d", when, s.Len(), len(want))
			}
			for id, o := range want {
				got, ok := s.Get(id)
				if !ok || got != o {
					t.Fatalf("%s: object %d = %+v ok=%v, want %+v", when, id, got, ok, o)
				}
			}
			found, err := s.Search(wholeDomain())
			if err != nil {
				t.Fatalf("%s: search: %v", when, err)
			}
			if len(found) != len(want) {
				t.Fatalf("%s: search found %d, want %d", when, len(found), len(want))
			}
			for _, id := range found {
				if _, ok := want[id]; !ok {
					t.Fatalf("%s: search returned unknown id %d", when, id)
				}
			}
		}
		verify(store, "live")
		if dir == "" {
			return
		}
		if err := store.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		recovered, err := vpindex.Open(writerOpts(vpindex.WithDataDir(dir))...)
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		defer recovered.Close()
		verify(recovered, "recovered")
	}
	t.Run("memory", func(t *testing.T) { run(t, "") })
	t.Run("durable", func(t *testing.T) { run(t, t.TempDir()) })
}

// TestKillPointConcurrentWritersOracle extends the kill-point matrix to
// concurrent writers: they stream unique-ID reports, sharing fsyncs through
// the log's group commit, while the injector kills the process image at every
// successive fsync. After recovery, every acknowledged report must be
// present with its exact value (acked = survives), and nothing may appear
// that was not at least submitted — a recovered ID is either acked or the
// in-flight op that died mid-commit (unacked ops otherwise leave no trace).
func TestKillPointConcurrentWritersOracle(t *testing.T) {
	const (
		writers   = 4
		perWriter = 24
	)
	obj := func(w, i int) vpindex.Object {
		rng := rand.New(rand.NewSource(int64(w*1000 + i)))
		o := testObject(w*10000+i+1, rng)
		o.T = float64(i) / 8
		return o
	}
	for killAt := int64(1); ; killAt++ {
		dir := t.TempDir()
		fi := vpindex.NewFaultInjector(killAt)
		store, err := vpindex.Open(writerOpts(
			vpindex.WithDataDir(dir),
			vpindex.WithSyncPolicy(vpindex.SyncGroupCommit(100*time.Microsecond)),
			vpindex.WithFaultInjector(fi),
			vpindex.WithCheckpointEvery(10),
			vpindex.WithWALSegmentBytes(2048),
		)...)
		if err != nil {
			t.Fatalf("killAt %d: open: %v", killAt, err)
		}
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			acked   = map[vpindex.ObjectID]vpindex.Object{}
			errored = map[vpindex.ObjectID]vpindex.Object{}
			crashed atomic.Bool
		)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					o := obj(w, i)
					if err := store.Report(o); err != nil {
						if !errors.Is(err, vpindex.ErrInjectedCrash) {
							t.Errorf("killAt %d: writer %d op %d: %v is not an injected crash", killAt, w, i, err)
						}
						crashed.Store(true)
						mu.Lock()
						errored[o.ID] = o
						mu.Unlock()
						return
					}
					mu.Lock()
					acked[o.ID] = o
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		_ = store.Close()
		if t.Failed() {
			return
		}

		recovered, err := vpindex.Open(writerOpts(vpindex.WithDataDir(dir))...)
		if err != nil {
			t.Fatalf("killAt %d: recovery open: %v", killAt, err)
		}
		for id, want := range acked {
			got, ok := recovered.Get(id)
			if !ok || got != want {
				t.Fatalf("killAt %d: acked object %d lost or corrupt (got %+v ok=%v)", killAt, id, got, ok)
			}
		}
		found, err := recovered.Search(wholeDomain())
		if err != nil {
			t.Fatalf("killAt %d: recovered search: %v", killAt, err)
		}
		for _, id := range found {
			if _, ok := acked[id]; ok {
				continue
			}
			want, wasInFlight := errored[id]
			if !wasInFlight {
				t.Fatalf("killAt %d: recovered id %d was never submitted", killAt, id)
			}
			got, _ := recovered.Get(id)
			if got != want {
				t.Fatalf("killAt %d: in-flight id %d recovered with wrong value %+v", killAt, id, got)
			}
		}
		recovered.Close()
		if !crashed.Load() {
			// The whole script outran the kill point (or it landed in a
			// background checkpoint): higher kill points change nothing more.
			if fi.SyncPoints() < killAt {
				t.Logf("matrix covered %d kill points", killAt-1)
				return
			}
		}
	}
}

// TestPostCrashReportsRefused: the Report whose commit dies in the injected
// crash returns it, and every later Report is refused by the health gate with
// the same classification — errors.Is still matches ErrInjectedCrash — which
// is what lets the kill-point oracles tell a crash from a bug on any writer.
func TestPostCrashReportsRefused(t *testing.T) {
	dir := t.TempDir()
	fi := vpindex.NewFaultInjector(1)
	store, err := vpindex.Open(writerOpts(
		vpindex.WithDataDir(dir),
		vpindex.WithSyncPolicy(vpindex.SyncAlways()),
		vpindex.WithFaultInjector(fi),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(9))
	var firstErr error
	for i := 1; i <= 50 && firstErr == nil; i++ {
		firstErr = store.Report(testObject(i, rng))
	}
	if firstErr == nil {
		t.Fatal("injected crash never surfaced")
	}
	if !errors.Is(firstErr, vpindex.ErrInjectedCrash) {
		t.Fatalf("report error %v does not wrap the injected crash", firstErr)
	}
	// Every later Report must fail fast with the same classification.
	err = store.Report(testObject(99, rng))
	if !errors.Is(err, vpindex.ErrInjectedCrash) || !errors.Is(err, vpindex.ErrFailed) {
		t.Fatalf("post-crash report error = %v, want ErrFailed wrapping the injected crash", err)
	}
	if got := store.Health(); got != vpindex.HealthFailed {
		t.Fatalf("Health = %v, want failed", got)
	}
}

// TestLoggedVerbContract pins what the one write routine promises for each of
// the seven logging verbs, on a durable store under SyncAlways: a rejected
// apply appends nothing; an acknowledged call appends exactly one record,
// already durable when the call returns (a ReportBatch of which only a part
// landed included, though it returns the rejected part's error); and a
// permanent fault on that record's append comes back as a media fault and
// moves Health off Healthy.
func TestLoggedVerbContract(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	objs := make([]vpindex.Object, 6)
	for i := range objs {
		objs[i] = testObject(i+1, rng)
	}
	nan := objs[4]
	nan.Pos = vpindex.V(math.NaN(), 1)
	sub := vpindex.Subscription{Query: wholeDomain(), Horizon: 100}
	// setup is what every row starts from: objects 1 and 2, subscription 1.
	const setupRecords = 3
	setup := func(t *testing.T, s *vpindex.Store) {
		t.Helper()
		for _, o := range objs[:2] {
			if err := s.Report(o); err != nil {
				t.Fatal(err)
			}
		}
		if id, _, err := s.Subscribe(sub, 0); err != nil || id != 1 {
			t.Fatalf("subscribe = %d, %v", id, err)
		}
	}
	verbs := []struct {
		name    string
		reject  func(s *vpindex.Store) error // an apply the verb refuses; nil: the verb has none
		ok      func(s *vpindex.Store) error // an apply that lands
		partial bool                         // ok lands a part and returns the error of the rest
	}{
		{name: "Report",
			reject: func(s *vpindex.Store) error { return s.Report(nan) },
			ok:     func(s *vpindex.Store) error { return s.Report(objs[2]) }},
		{name: "Insert",
			reject: func(s *vpindex.Store) error { return s.Insert(objs[0]) },
			ok:     func(s *vpindex.Store) error { return s.Insert(objs[2]) }},
		{name: "Remove",
			reject: func(s *vpindex.Store) error { return s.Remove(9) },
			ok:     func(s *vpindex.Store) error { return s.Remove(1) }},
		{name: "ReportBatch",
			reject: func(s *vpindex.Store) error { return s.ReportBatch([]vpindex.Object{nan}) },
			ok:     func(s *vpindex.Store) error { return s.ReportBatch(objs[2:4]) }},
		{name: "ReportBatch/partial", partial: true,
			ok: func(s *vpindex.Store) error { return s.ReportBatch([]vpindex.Object{objs[2], nan, objs[3]}) }},
		{name: "Subscribe",
			reject: func(s *vpindex.Store) error {
				_, _, err := s.Subscribe(vpindex.Subscription{Query: wholeDomain(), Horizon: -1}, 0)
				return err
			},
			ok: func(s *vpindex.Store) error {
				id, _, err := s.Subscribe(sub, 1)
				if err == nil && id != 2 {
					err = fmt.Errorf("second subscription got id %d", id)
				}
				return err
			}},
		{name: "Unsubscribe",
			reject: func(s *vpindex.Store) error { return s.Unsubscribe(9) },
			ok:     func(s *vpindex.Store) error { return s.Unsubscribe(1) }},
		{name: "RefreshSubscriptions", // a refresh of a live engine has no rejected form
			ok: func(s *vpindex.Store) error {
				_, err := s.RefreshSubscriptions(5)
				return err
			}},
	}
	open := func(t *testing.T, dir string, extra ...vpindex.Option) *vpindex.Store {
		t.Helper()
		store, err := vpindex.Open(append([]vpindex.Option{
			vpindex.WithKind(vpindex.Bx),
			vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
			vpindex.WithShards(2),
			vpindex.WithDataDir(dir),
			vpindex.WithSyncPolicy(vpindex.SyncAlways()),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	stats := func(t *testing.T, s *vpindex.Store) vpindex.DurabilityStats {
		t.Helper()
		ds, ok := s.DurabilityStats()
		if !ok {
			t.Fatal("durable store reports no durability stats")
		}
		return ds
	}
	for _, v := range verbs {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			store := open(t, dir)
			setup(t, store)
			before := stats(t, store)
			if v.reject != nil {
				if err := v.reject(store); err == nil {
					t.Fatal("rejected apply returned nil")
				}
				if ds := stats(t, store); ds.WALAppendedLSN != before.WALAppendedLSN || ds.Health != vpindex.HealthHealthy {
					t.Fatalf("rejected apply: appended LSN %d -> %d, health %v", before.WALAppendedLSN, ds.WALAppendedLSN, ds.Health)
				}
			}
			if err := v.ok(store); (err != nil) != v.partial || vpindex.IsMediaFault(err) {
				t.Fatalf("acknowledged call = %v (partial: %v)", err, v.partial)
			}
			after := stats(t, store)
			if after.WALAppendedLSN <= before.WALAppendedLSN || after.WALDurableLSN < after.WALAppendedLSN {
				t.Fatalf("acknowledged call: appended LSN %d -> %d, durable %d", before.WALAppendedLSN, after.WALAppendedLSN, after.WALDurableLSN)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			reopened := open(t, dir)
			if ds := stats(t, reopened); ds.ReplayedRecords != setupRecords+1 {
				t.Fatalf("replayed %d records, want the %d of the setup and one more", ds.ReplayedRecords, setupRecords)
			}
			reopened.Close()

			// The same call again, over a log whose next append is dead.
			faulty := open(t, t.TempDir(), vpindex.WithFaultInjector(vpindex.NewScriptedInjector(
				vpindex.FaultRule{Op: vpindex.OpWALAppend, Seq: setupRecords + 1, Kind: vpindex.FaultPermanentEIO},
			)))
			defer faulty.Close()
			setup(t, faulty)
			err := v.ok(faulty)
			if !vpindex.IsMediaFault(err) && !errors.Is(err, vpindex.ErrInjectedCrash) {
				t.Fatalf("call over a dead log = %v, want a media fault", err)
			}
			if got := faulty.Health(); got == vpindex.HealthHealthy {
				t.Fatal("append fault left the store healthy")
			}
		})
	}
}

// TestReportSteadyStateAllocs is the allocation gate on the one write routine:
// its closures must not escape and its encode buffer is pooled, so a
// steady-state Report of a known object allocates nothing, in memory and on a
// durable store (SyncNone) alike. With 500 standing subscriptions a report
// that changes no membership allocates nothing either: the filter appends its
// candidates to the evaluation shard's scratch and Reconcile reads the
// object's own membership list. In the flip case every measured report enters
// or leaves one subscription: what it allocates is the event batch Reconcile
// returns and, on an enter, the object's membership list, 1.875 per report.
// The averages are exact (exactAllocsPerRun); the limits of the cases that
// measure 0 leave room for one stray allocation in twenty reports.
func TestReportSteadyStateAllocs(t *testing.T) {
	if poolsDropItems() {
		t.Skip("sync.Pool is discarding items (race detector): every pooled path allocates")
	}
	for _, c := range []struct {
		name    string
		durable bool
		subs    int
		flip    bool
		limit   float64
	}{
		{"durable=false", false, 0, false, 0.05},
		{"durable=true", true, 0, false, 0.05},
		{"subscriptions=500", false, 500, false, 0.05},
		{"subscriptions=500/flip", false, 500, true, 1.9},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := []vpindex.Option{
				vpindex.WithKind(vpindex.Bx),
				vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
				vpindex.WithShards(2),
			}
			if c.durable {
				opts = append(opts, vpindex.WithDataDir(t.TempDir()), vpindex.WithSyncPolicy(vpindex.SyncNone()))
			}
			store, err := vpindex.Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			rng := rand.New(rand.NewSource(5))
			objs := make([]vpindex.Object, 256)
			for i := range objs {
				objs[i] = testObject(i+1, rng)
				if err := store.Report(objs[i]); err != nil {
					t.Fatal(err)
				}
			}
			// Every measured report moves its object to the mirrored position.
			for i := range objs {
				objs[i].Pos = vpindex.V(objs[i].Pos.Y, objs[i].Pos.X)
			}
			// Each subscription watches where one of the objects will be, so
			// that every measured report has candidates and memberships; each
			// object is moved to its mirrored position first, so that the
			// measured reports change none of them.
			subs := make([]vpindex.Subscription, c.subs)
			for i := range subs {
				o := objs[i%len(objs)]
				sub := vpindex.Subscription{Horizon: 10 * rng.Float64()}
				at := o.PosAt(sub.Horizon)
				sub.Query.Rect = vpindex.R(at.X-300, at.Y-300, at.X+300, at.Y+300)
				if i%2 == 1 {
					sub.Query.Kind, sub.Query.Vel, sub.Window = vpindex.MovingRange, vpindex.V(rng.Float64()*20-10, rng.Float64()*20-10), 5
				}
				if _, _, err := store.Subscribe(sub, 0); err != nil {
					t.Fatal(err)
				}
				subs[i] = sub
			}
			if c.subs > 0 {
				for _, o := range objs {
					if err := store.Report(o); err != nil {
						t.Fatal(err)
					}
				}
				members := 0
				for id := vpindex.SubscriptionID(1); id <= vpindex.SubscriptionID(c.subs); id++ {
					ids, err := store.SubscriptionResults(id)
					if err != nil {
						t.Fatal(err)
					}
					members += len(ids)
				}
				if members < c.subs {
					t.Fatalf("%d memberships, want at least one per subscription", members)
				}
			}
			next := func(i int) vpindex.Object { return objs[i%len(objs)] }
			if c.flip {
				next = flipReports(t, store, subs)
			}
			i := 0
			got := exactAllocsPerRun(2000, func() {
				o := next(i)
				i++
				if err := store.Report(o); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.3f allocations per report", got)
			if got > c.limit {
				t.Fatalf("steady-state Report allocates %.3f/op, want <= %v", got, c.limit)
			}
		})
	}
}

// flipReports registers one more subscription, a fence, and returns a
// sequence of reports of eight new objects, each standing alternately inside
// the fence and beside it. Both positions lie outside every subscription in
// subs, so each report of the sequence enters or leaves the fence and changes
// no other membership; one pass of the sequence checks that it does.
func flipReports(t *testing.T, store *vpindex.Store, subs []vpindex.Subscription) func(int) vpindex.Object {
	t.Helper()
	const flippers = 8
	watched := func(p vpindex.Vec2) bool {
		for _, s := range subs {
			if monitor.MatchesAt(vpindex.Object{Pos: p}, s, 0) {
				return true
			}
		}
		return false
	}
	var in, out vpindex.Vec2
	found := false
	for x := 500.0; x < 19000 && !found; x += 700 {
		for y := 500.0; y < 19500 && !found; y += 700 {
			in, out = vpindex.V(x, y), vpindex.V(x+700, y)
			found = !watched(in) && !watched(out)
		}
	}
	if !found {
		t.Fatal("no pair of positions that no subscription watches")
	}
	fence := vpindex.Subscription{}
	fence.Query.Rect = vpindex.R(in.X-300, in.Y-300, in.X+300, in.Y+300)
	id, _, err := store.Subscribe(fence, 0)
	if err != nil {
		t.Fatal(err)
	}
	inside := make([]bool, flippers)
	next := func(i int) vpindex.Object {
		k := i % flippers
		inside[k] = !inside[k]
		o := vpindex.Object{ID: vpindex.ObjectID(1_000_000 + k), Pos: out}
		if inside[k] {
			o.Pos = in
		}
		return o
	}
	for i := 0; i < 2*flippers; i++ {
		o := next(i)
		if err := store.Report(o); err != nil {
			t.Fatal(err)
		}
		members, err := store.SubscriptionResults(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(i+1, 2*flippers-1-i); len(members) != want {
			t.Fatalf("report %d of the flip sequence: the fence holds %d objects, want %d", i, len(members), want)
		}
	}
	return next
}

// TestSearchSteadyStateAllocs is the allocation gate on the read path of a
// cached, velocity-partitioned Store of either kind: the scan frames, the
// interval and range scratch, the TPR* kNN heaps and the manager's
// per-partition buffers are pooled and the predicate runs on the pinned leaf,
// so what a query allocates is its result, the fan-out's goroutines and, for
// kNN, each partition's candidate list. The limits sit up to a tenth above the
// exact averages this measures (exactAllocsPerRun: Search 11.0 on both, for a
// slice circle, an interval rectangle and a moving one alike; SearchKNN 15.4
// on Bx, 15.0 on TPR*). Before the
// scratch was pooled Bx measured 95 and 133; a TPR* kNN that boxed every slot
// it opened onto a heap measured 882.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if poolsDropItems() {
		t.Skip("sync.Pool is discarding items (race detector): every pooled path allocates")
	}
	objs := randomObjects(20000, 9)
	sample := make([]vpindex.Vec2, len(objs))
	for i, o := range objs {
		sample[i] = o.Vel
	}
	for _, kind := range []vpindex.Kind{vpindex.Bx, vpindex.TPRStar} {
		store, err := vpindex.Open(vpindex.WithKind(kind), vpindex.WithBufferPages(1024), vpindex.WithSearchParallelism(4),
			vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(sample), vpindex.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if err := store.ReportBatch(objs); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		centre := func() vpindex.Vec2 { return vpindex.V(rng.Float64()*100000, rng.Float64()*100000) }
		for _, c := range []struct {
			name  string
			limit float64
			call  func() error
		}{
			{"Search", 12, func() error {
				_, err := store.Search(vpindex.SliceQuery(vpindex.Circle{C: centre(), R: 1500}, 0, 60))
				return err
			}},
			{"Search(interval)", 12, func() error {
				c := centre()
				_, err := store.Search(vpindex.IntervalQuery(vpindex.R(c.X-1000, c.Y-1000, c.X+1000, c.Y+1000), 0, 60, 90))
				return err
			}},
			{"Search(moving)", 12, func() error {
				c := centre()
				_, err := store.Search(vpindex.MovingQuery(vpindex.R(c.X-1000, c.Y-1000, c.X+1000, c.Y+1000), vpindex.V(30, -20), 0, 60, 90))
				return err
			}},
			{"SearchKNN", 16, func() error {
				_, err := store.SearchKNN(vpindex.KNNQuery{Center: centre(), K: 10, Now: 0, T: 60})
				return err
			}},
		} {
			got := exactAllocsPerRun(500, func() {
				if err := c.call(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("steady-state %s %s allocates %.3f/op", kind, c.name, got)
			if got > c.limit {
				t.Errorf("steady-state %s %s allocates %.3f/op, want <= %v", kind, c.name, got, c.limit)
			}
		}
	}
}

// exactAllocsPerRun is testing.AllocsPerRun without its truncation: the
// heap allocations of runs calls of f, after one warm-up call, at GOMAXPROCS
// 1, divided by runs. AllocsPerRun returns the whole-number part of that
// average, so a limit of L there passes anything below L+1.
func exactAllocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// poolsDropItems reports whether sync.Pool is discarding what it is handed, as
// it does at random under the race detector: an allocation gate over pooled
// scratch then measures the detector, not the code.
func poolsDropItems() bool {
	news := 0
	p := sync.Pool{New: func() any { news++; return new(int) }}
	for i := 0; i < 64; i++ {
		p.Put(p.Get())
	}
	return news > 1
}
