package vpindex

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"syscall"
	"testing"

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

// deadReads is a PageStore whose reads fail with EIO once dead is set.
type deadReads struct {
	storage.PageStore
	dead atomic.Bool
}

func (d *deadReads) ReadPage(id storage.PageID, dst *[storage.PageSize]byte) error {
	if d.dead.Load() {
		return fmt.Errorf("deadReads: page %d: %w", id, syscall.EIO)
	}
	return d.PageStore.ReadPage(id, dst)
}

// TestReplayedSubscribeFailedSeedLeavesNoMembership: replay registers a logged
// subscription through the same subscribeApply as Subscribe, under its logged
// id, and a seed query that fails rolls the registration back completely —
// the registry entry, the filter entry and, in every stripe, whatever
// membership a report reconciled against the subscription between the
// registration and the failure (the maintenance hook plays that writer: it
// runs inside the failing Search, when the fault degrades the store).
func TestReplayedSubscribeFailedSeedLeavesNoMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sample := make([]Vec2, 400)
	for i := range sample {
		sample[i] = gridObject(i, rng).Vel
	}
	var onDegrade func()
	s, err := Open(WithKind(Bx), WithDomain(R(0, 0, 20000, 20000)), WithShards(2), WithBufferPages(1),
		WithVelocitySample(sample), WithSeed(3),
		WithMaintenanceHook(func(ev MaintenanceEvent) {
			if ev.Op == MaintHealth && onDegrade != nil {
				onDegrade()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the partitions over a disk the test can kill.
	disk := &deadReads{PageStore: s.disk}
	s.disk = disk
	if err := s.Repartition(); err != nil {
		t.Fatal(err)
	}
	objs := make([]Object, 300)
	for i := range objs {
		objs[i] = gridObject(i+1, rng)
	}
	if err := s.ReportBatch(objs); err != nil {
		t.Fatal(err)
	}
	const id = SubscriptionID(7)
	sub := Subscription{Query: RectSliceQuery(R(-1e6, -1e6, 1e6, 1e6), 0, 0), Horizon: 10}
	members := func() (n int) {
		e := s.subEng.Load()
		for si := range e.shards {
			sh := &e.shards[si]
			sh.mu.Lock()
			n += len(sh.rs.Members(id))
			sh.mu.Unlock()
		}
		return n
	}

	reconciled := 0
	onDegrade = func() {
		s.subEng.Load().noteReport(objs[0])
		reconciled = members()
	}
	disk.dead.Store(true)
	if _, _, err := s.subscribeApply(id, sub, 0); !storage.IsMediaFault(err) {
		t.Fatalf("subscribe over dead reads = %v, want the media fault", err)
	}
	if reconciled != 1 {
		t.Fatalf("the racing report reconciled %d memberships before the rollback, want 1", reconciled)
	}
	if n := members(); n != 0 || s.NumSubscriptions() != 0 {
		t.Fatalf("failed seed left %d memberships and %d subscriptions behind", n, s.NumSubscriptions())
	}
	if _, err := s.SubscriptionResults(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SubscriptionResults of the rolled-back id = %v, want ErrNotFound", err)
	}

	// The same record applies cleanly once the reads are back: the logged id,
	// the whole population as its seed, and the next fresh id after it.
	disk.dead.Store(false)
	got, evs, err := s.subscribeApply(id, sub, 0)
	if err != nil || got != id || len(evs) != len(objs) || members() != len(objs) {
		t.Fatalf("replayed subscribe = id %d, %d events, %d members, %v; want id %d and %d of each",
			got, len(evs), members(), err, id, len(objs))
	}
	if next, _, err := s.Subscribe(sub, 0); err != nil || next != id+1 {
		t.Fatalf("Subscribe after the replayed id %d = %d, %v", id, next, err)
	}
}
