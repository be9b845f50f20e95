package vpindex

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestReplaySkipsHealthGate: while Open replays the log, the health gate is
// off for every verb alike. A replayed Subscribe or Refresh whose Search hits a
// persistent media fault degrades the store mid-replay; the records after it
// were acknowledged by the crashed process and must still apply — single
// reports and batches both (ReportBatch used to consult the gate on its own
// and drop them). Once the replay is over the same store refuses both.
func TestReplaySkipsHealthGate(t *testing.T) {
	s, err := Open(WithKind(Bx), WithDomain(R(0, 0, 20000, 20000)), WithShards(2), WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(2))
	s.dur.recovering.Store(true)
	s.degrade("fault met while replaying", nil)
	one, batch := gridObject(1, rng), []Object{gridObject(2, rng), gridObject(3, rng)}
	if err := s.Report(one); err != nil {
		t.Fatalf("replayed Report on a degraded store: %v", err)
	}
	if err := s.ReportBatch(batch); err != nil {
		t.Fatalf("replayed ReportBatch on a degraded store: %v", err)
	}
	for _, want := range append(batch, one) {
		if got, ok := s.Get(want.ID); !ok || got != want {
			t.Fatalf("replayed record %d = %+v, %v; want %+v", want.ID, got, ok, want)
		}
	}
	if ds, _ := s.DurabilityStats(); ds.WALAppendedLSN != 0 {
		t.Fatalf("replay appended to the log (LSN %d)", ds.WALAppendedLSN)
	}
	s.dur.recovering.Store(false)
	if err := s.Report(one); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Report after the replay = %v, want ErrDegraded", err)
	}
	if err := s.ReportBatch(batch); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ReportBatch after the replay = %v, want ErrDegraded", err)
	}
}

// deadReads is a PageStore whose reads fail with EIO once dead is set. The
// first failing read runs onFail, if set.
type deadReads struct {
	storage.PageStore
	dead   atomic.Bool
	onFail func()
	once   sync.Once
}

func (d *deadReads) ReadPage(id storage.PageID, dst *[storage.PageSize]byte) error {
	if d.dead.Load() {
		if d.onFail != nil {
			d.once.Do(d.onFail)
		}
		return fmt.Errorf("deadReads: page %d: %w", id, syscall.EIO)
	}
	return d.PageStore.ReadPage(id, dst)
}

// TestReplayedSubscribeFailedSeedLeavesNoMembership: replay registers a logged
// subscription through the same subscribeApply as Subscribe, under its logged
// id, and a seed query that fails rolls the registration back completely —
// the registry entry, the filter entry and, in every stripe, whatever
// membership a report reconciled against the subscription between the
// registration and the failure. The racing report is started by the seed
// search's failing read, once the reads work again, and holds the registry
// shared before the search lets go of the stripes, so it reconciles before
// the rollback can take the registry.
func TestReplayedSubscribeFailedSeedLeavesNoMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sample := make([]Vec2, 400)
	for i := range sample {
		sample[i] = gridObject(i, rng).Vel
	}
	s, err := Open(WithKind(Bx), WithDomain(R(0, 0, 20000, 20000)), WithShards(2), WithBufferPages(1),
		WithVelocitySample(sample), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]Object, 300)
	for i := range objs {
		objs[i] = gridObject(i+1, rng)
	}
	if err := s.ReportBatch(objs); err != nil {
		t.Fatal(err)
	}
	// Rebuild the partitions over a disk the test can kill.
	disk := &deadReads{PageStore: s.disk}
	s.disk = disk
	if err := s.Repartition(); err != nil {
		t.Fatal(err)
	}
	events := s.Events()
	const id = SubscriptionID(7)
	sub := Subscription{Query: RectSliceQuery(R(-1e6, -1e6, 1e6, 1e6), 0, 0), Horizon: 10}
	members := func() int { return len(s.subEng.Load().members(id)) }

	reported := make(chan error, 1)
	disk.onFail = func() {
		disk.dead.Store(false)
		e := s.subEng.Load()
		go func() { reported <- s.Report(objs[0]) }()
		for e.regMu.TryLock() { // until the report holds the registry shared
			e.regMu.Unlock()
			runtime.Gosched()
		}
	}
	disk.dead.Store(true)
	if _, _, err := s.subscribeApply(id, sub, 0); !storage.IsMediaFault(err) {
		t.Fatalf("subscribe over dead reads = %v, want the media fault", err)
	}
	if err := <-reported; err != nil {
		t.Fatalf("the racing report: %v", err)
	}
	select {
	case ev := <-events:
		if ev.Sub != id || ev.ID != objs[0].ID || ev.Kind != Enter {
			t.Fatalf("the racing report emitted %+v, want the enter of %d into %d", ev, objs[0].ID, id)
		}
	default:
		t.Fatal("the racing report reconciled no membership before the rollback")
	}
	if n := members(); n != 0 || s.NumSubscriptions() != 0 {
		t.Fatalf("failed seed left %d memberships and %d subscriptions behind", n, s.NumSubscriptions())
	}
	if _, err := s.SubscriptionResults(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SubscriptionResults of the rolled-back id = %v, want ErrNotFound", err)
	}

	// The same record applies cleanly once the reads are back: the logged id,
	// the whole population as its seed, and the next fresh id after it.
	got, evs, err := s.subscribeApply(id, sub, 0)
	if err != nil || got != id || len(evs) != len(objs) || members() != len(objs) {
		t.Fatalf("replayed subscribe = id %d, %d events, %d members, %v; want id %d and %d of each",
			got, len(evs), members(), err, id, len(objs))
	}
	if next, _, err := s.Subscribe(sub, 0); err != nil || next != id+1 {
		t.Fatalf("Subscribe after the replayed id %d = %d, %v", id, next, err)
	}
}

// TestNonFiniteClockRejected: Subscribe and RefreshSubscriptions refuse a
// non-finite now with ErrInvalidQuery before touching anything — no log
// record, no clock advance — so a later report is still reconciled at its own
// time and keeps its membership.
func TestNonFiniteClockRejected(t *testing.T) {
	s, err := Open(WithKind(Bx), WithDomain(R(0, 0, 20000, 20000)), WithShards(2), WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(4))
	objs := []Object{gridObject(1, rng), gridObject(2, rng)}
	if err := s.ReportBatch(objs); err != nil {
		t.Fatal(err)
	}
	sub := Subscription{Query: RectSliceQuery(R(-1e6, -1e6, 1e6, 1e6), 0, 0), Horizon: 10}
	id, _, err := s.Subscribe(sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.SubscriptionResults(id)
	if len(want) != len(objs) {
		t.Fatalf("%d members, want %d", len(want), len(objs))
	}
	check := func(call string, err error) {
		t.Helper()
		if !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("%s = %v, want ErrInvalidQuery", call, err)
		}
		if c := s.subEng.Load().now(); c != 0 {
			t.Fatalf("%s moved the clock to %v", call, c)
		}
		if ds, _ := s.DurabilityStats(); ds.WALAppendedLSN != lsn(s) {
			t.Fatalf("%s appended to the log", call)
		}
		if err := s.Report(objs[0]); err != nil {
			t.Fatal(err)
		}
		if got, _ := s.SubscriptionResults(id); len(got) != len(want) || s.NumSubscriptions() != 1 {
			t.Fatalf("after %s: members %v, %d subscriptions; want %v and 1", call, got, s.NumSubscriptions(), want)
		}
	}
	for _, now := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		before := lsn(s)
		_, _, err := s.Subscribe(sub, now)
		if lsn(s) != before {
			t.Fatalf("Subscribe(%v) appended to the log", now)
		}
		check(fmt.Sprintf("Subscribe(%v)", now), err)
		before = lsn(s)
		_, err = s.RefreshSubscriptions(now)
		if lsn(s) != before {
			t.Fatalf("RefreshSubscriptions(%v) appended to the log", now)
		}
		check(fmt.Sprintf("RefreshSubscriptions(%v)", now), err)
	}
}

func lsn(s *Store) uint64 {
	ds, _ := s.DurabilityStats()
	return ds.WALAppendedLSN
}

// TestSubscriptionSearchFaultHookMayCheckpoint: the seed search of Subscribe
// and the searches of RefreshSubscriptions run inside the write gate, so they
// leave fault classification to the write routine, which runs it — and with
// it the MaintHealth hook — after the gate is released. A hook that calls
// Checkpoint therefore completes instead of waiting for a gate its own verb
// holds.
func TestSubscriptionSearchFaultHookMayCheckpoint(t *testing.T) {
	for _, verb := range []string{"Subscribe", "RefreshSubscriptions"} {
		t.Run(verb, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			sample := make([]Vec2, 400)
			for i := range sample {
				sample[i] = gridObject(i, rng).Vel
			}
			var s *Store
			hooked := make(chan error, 1)
			s, err := Open(WithKind(Bx), WithDomain(R(0, 0, 20000, 20000)), WithShards(2), WithBufferPages(1),
				WithVelocitySample(sample), WithSeed(3), WithDataDir(t.TempDir()),
				WithMaintenanceHook(func(ev MaintenanceEvent) {
					if ev.Op == MaintHealth {
						hooked <- s.Checkpoint()
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			objs := make([]Object, 2000)
			for i := range objs {
				objs[i] = gridObject(i+1, rng)
			}
			if err := s.ReportBatch(objs); err != nil {
				t.Fatal(err)
			}
			disk := &deadReads{PageStore: s.disk}
			s.disk = disk
			if err := s.Repartition(); err != nil {
				t.Fatal(err)
			}
			sub := Subscription{Query: RectSliceQuery(R(-1e6, -1e6, 1e6, 1e6), 0, 0), Horizon: 10}
			call := func() error { _, _, err := s.Subscribe(sub, 0); return err }
			if verb == "RefreshSubscriptions" {
				if err := call(); err != nil {
					t.Fatal(err)
				}
				call = func() error { _, err := s.RefreshSubscriptions(1); return err }
			}
			disk.dead.Store(true)
			done := make(chan error, 1)
			go func() { done <- call() }()
			select {
			case err := <-done:
				if !storage.IsMediaFault(err) {
					t.Fatalf("%s over dead reads = %v, want the media fault", verb, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s did not return: the hook's Checkpoint waits for the gate it holds", verb)
			}
			select {
			case err := <-hooked:
				if err != nil {
					t.Fatalf("the hook's Checkpoint: %v", err)
				}
			default:
				t.Fatal("the fault did not degrade the store")
			}
			if s.Health() != HealthDegraded {
				t.Fatalf("health %v, want degraded", s.Health())
			}
		})
	}
}
