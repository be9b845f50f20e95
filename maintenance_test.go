package vpindex_test

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	vpindex "repro"
)

// TestNoMaintenanceAfterClose pins Close's contract for background work on
// both kinds of Store: a drift check due on every 50th report (the threshold
// is so low that nearly every check swaps) is still running when the last
// report returns, and Close must wait for it. Once Close returns, the Store
// has no goroutine left and the hook hears nothing more.
func TestNoMaintenanceAfterClose(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			var closed atomic.Bool
			var after atomic.Int64
			var lastAfter atomic.Value
			opts := []vpindex.Option{
				vpindex.WithKind(vpindex.Bx),
				vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
				vpindex.WithBufferPages(30),
				vpindex.WithShards(2),
				vpindex.WithVelocityPartitioning(2),
				vpindex.WithVelocitySample(testSample(400, 1)),
				vpindex.WithRepartitionPolicy(vpindex.RepartitionPolicy{Every: 50, DriftThreshold: 1e-9}),
				vpindex.WithSeed(5),
				vpindex.WithMaintenanceHook(func(ev vpindex.MaintenanceEvent) {
					if closed.Load() {
						after.Add(1)
						lastAfter.Store(ev)
					}
				}),
			}
			if durable {
				opts = append(opts, vpindex.WithDataDir(t.TempDir()), vpindex.WithSyncPolicy(vpindex.SyncNone()))
			}
			before := runtime.NumGoroutine()
			store, err := vpindex.Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			for i := 1; i <= 5000; i++ {
				if err := store.Report(testObject(i, rng)); err != nil {
					t.Fatal(err)
				}
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			closed.Store(true)
			// A joined goroutine still counts until it has fully exited (the
			// loop past its deferred close, a manager worker past its Done),
			// so a count above before gets a short grace, not a free pass. A
			// count below it is an earlier test's goroutine ending meanwhile.
			deadline := time.Now().Add(10 * time.Millisecond)
			for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Errorf("%d goroutines after Close, %d before Open:\n%s", n, before, buf[:runtime.Stack(buf, true)])
					break
				}
				runtime.Gosched()
			}
			// A check that outlived Close would report within this wait.
			time.Sleep(500 * time.Millisecond)
			if n := after.Load(); n != 0 {
				t.Fatalf("%d maintenance events after Close, the last %+v", n, lastAfter.Load())
			}
		})
	}
}

// TestMaintenanceHookMayClose closes a durable Store from the hook of a
// checkpoint that the maintenance loop runs, while the scrub ticker keeps
// marking work due. That Close must return — it cannot wait for the run
// that called it — and no task may start after it: the loop exits, and the
// hook hears nothing more.
func TestMaintenanceHookMayClose(t *testing.T) {
	var (
		store    *vpindex.Store
		closed   atomic.Bool
		after    atomic.Int64
		closeErr = make(chan error, 1)
	)
	before := runtime.NumGoroutine()
	store, err := vpindex.Open(durableOpts(
		vpindex.WithDataDir(t.TempDir()),
		vpindex.WithSyncPolicy(vpindex.SyncNone()),
		vpindex.WithCheckpointEvery(20),
		vpindex.WithScrubEvery(time.Millisecond),
		vpindex.WithMaintenanceHook(func(ev vpindex.MaintenanceEvent) {
			if closed.Load() {
				after.Add(1)
				return
			}
			if ev.Op == vpindex.MaintCheckpoint && closed.CompareAndSwap(false, true) {
				closeErr <- store.Close()
			}
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 1; !closed.Load(); i++ {
		// A report racing the hook's Close may fail in any way Close makes
		// it fail; one before it may not.
		if err := store.Report(testObject(i, rng)); err != nil && !closed.Load() {
			t.Fatal(err)
		}
		if i == 10000 {
			t.Fatal("no checkpoint ran on the maintenance loop")
		}
	}
	select {
	case err := <-closeErr:
		if err != nil {
			t.Fatalf("Close from the hook: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close called from a maintenance hook did not return")
	}
	passes := func() int64 { st, _ := store.DurabilityStats(); return st.ScrubPasses }
	scrubbed := passes()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("the maintenance loop outlived Close:\n%s", buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	if n := after.Load(); n != 0 {
		t.Fatalf("%d maintenance events after Close", n)
	}
	if n := passes(); n != scrubbed {
		t.Fatalf("%d scrub passes after Close", n-scrubbed)
	}
	if err := store.Report(testObject(1, rng)); !errors.Is(err, vpindex.ErrFailed) {
		t.Fatalf("Report after Close = %v, want ErrFailed", err)
	}
}
