package vpindex

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/storage"
)

// budgetDisk is a PageStore whose Allocate starts failing once a budget is
// spent, to make a partition swap die while it builds or fills a fresh
// manager. Swapped in for Store.disk, it is seen only by managers built
// afterwards: the live ones keep their pools over the real disk. A swap fills
// its partitions in parallel, so Allocate takes a lock; the test reads and
// sets the fields only between swaps.
type budgetDisk struct {
	storage.PageStore
	mu     sync.Mutex
	left   int // allocations before failure; negative means unlimited
	allocs int // successful allocations so far
}

func (d *budgetDisk) Allocate() (storage.PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.left == 0 {
		return 0, errors.New("budgetDisk: out of pages")
	}
	d.left--
	d.allocs++
	return d.PageStore.Allocate()
}

// gridObject is a mover along the x or the y axis (by id parity) inside the
// 20 km test domain.
func gridObject(id int, rng *rand.Rand) Object {
	speed := 20 + rng.Float64()*60
	vel := V(speed, rng.NormFloat64())
	if id%2 == 0 {
		vel = V(rng.NormFloat64(), speed)
	}
	return Object{ID: ObjectID(id), Pos: V(rng.Float64()*20000, rng.Float64()*20000), Vel: vel}
}

// mustMatchOracle requires Len, Get of every oracle id and a whole-domain
// Search to agree with the brute-force mirror.
func mustMatchOracle(t *testing.T, s *Store, oracle *model.BruteForce, ids []ObjectID, stage string) {
	t.Helper()
	if s.Len() != oracle.Len() {
		t.Fatalf("%s: len %d, oracle %d", stage, s.Len(), oracle.Len())
	}
	for _, id := range ids {
		got, gok := s.Get(id)
		want, wok := oracle.Get(id)
		if gok != wok || got != want {
			t.Fatalf("%s: get %d: (%v, %v) vs oracle (%v, %v)", stage, id, got, gok, want, wok)
		}
	}
	q := RectSliceQuery(R(0, 0, 20000, 20000), 0, 0)
	got, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracle.Search(q)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("%s: whole-domain search %d ids, oracle %d", stage, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: whole-domain search differs at %d: %d vs %d", stage, i, got[i], want[i])
		}
	}
}

// samePools reports whether the live pool set is exactly want, pointer for
// pointer.
func samePools(s *Store, want []*storage.BufferPool) bool {
	got := s.Pools()
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestSwapPartitionsFailureLeavesShardsServing pins the failure contract of
// the one migration routine: a swap that is rejected outright, or that dies
// while the fresh manager is being filled, retires the fresh pools without
// ever making them live, frees their pages, consumes an epoch number but no
// repartition count, and leaves the old manager — its k+1 pools, every
// record, every partition size — answering exactly and accepting updates and
// removals. There is no partial state to finish: the next drift check on
// unchanged traffic does not swap, and the next Repartition simply succeeds.
func TestSwapPartitionsFailureLeavesShardsServing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sample := make([]Vec2, 400)
	for i := range sample {
		sample[i] = gridObject(i, rng).Vel
	}
	var last MaintenanceEvent
	s, err := Open(WithKind(Bx), WithDomain(R(0, 0, 20000, 20000)), WithBufferPages(30),
		WithShards(2), WithVelocityPartitioning(2), WithVelocitySample(sample), WithSeed(5),
		WithMaintenanceHook(func(ev MaintenanceEvent) { last = ev }))
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.NewBruteForce()
	var ids []ObjectID
	for i := 1; i <= 300; i++ {
		o := gridObject(i, rng)
		if err := s.Report(o); err != nil {
			t.Fatal(err)
		}
		_ = oracle.Insert(o)
		ids = append(ids, o.ID)
	}
	an, _ := s.Analysis()
	sizesSum := func() int {
		total := 0
		for _, p := range s.Partitions() {
			total += p.Size
		}
		return total
	}
	pools := s.Pools()
	if len(pools) != len(an.Frames) || pools[0].Capacity() != 30*2 {
		t.Fatalf("%d live pools of %d frames, want %d (one per partition) of 60 (pages x shards)",
			len(pools), pools[0].Capacity(), len(an.Frames))
	}

	// A malformed analysis is rejected before anything is built (the attempt
	// still consumes an epoch number, like every failed swap).
	if err := s.swapPartitions(core.Analysis{Kind: core.KindSpeed, Frames: []core.Frame{{SpeedMax: 10}}}); err == nil {
		t.Fatal("malformed analysis accepted")
	}
	if got, _ := s.Analysis(); got.Kind != an.Kind || len(s.Partitions()) != len(an.Frames) {
		t.Fatalf("rejected swap changed the live analysis: %v, %d partitions", got.Kind, len(s.Partitions()))
	}
	if st := s.Stats(); st.PartitionEpoch != 2 || st.Repartitions != 0 || !samePools(s, pools) {
		t.Fatalf("rejected swap: %+v, pools unchanged %v; want epoch 2, 0 repartitions, the same pools", st, samePools(s, pools))
	}
	mustMatchOracle(t, s, oracle, ids, "after rejected analysis")

	// Measure what a full swap allocates, then allow three quarters of it:
	// the fresh manager is built and dies while the population moves in.
	disk := &budgetDisk{PageStore: s.disk, left: -1}
	s.disk = disk
	if err := s.swapPartitions(an); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PartitionEpoch != 3 || st.Repartitions != 1 || samePools(s, pools) || len(s.Pools()) != len(pools) {
		t.Fatalf("completed swap: %+v, %d pools; want epoch 3, 1 repartition, %d fresh pools", st, len(s.Pools()), len(pools))
	}
	pools = s.Pools()
	livePages := disk.NumPages()
	disk.left = disk.allocs * 3 / 4
	if err := s.swapPartitions(an); err == nil {
		t.Fatal("swap over an exhausted disk succeeded")
	}
	if st := s.Stats(); st.PartitionEpoch != 4 || st.Repartitions != 1 || st.SwapInFlight {
		t.Fatalf("failed swap: %+v; want epoch 4 consumed, still 1 repartition, no swap in flight", st)
	}
	if !samePools(s, pools) {
		t.Fatal("failed swap changed the live pools (fresh pools registered, or old ones retired)")
	}
	if got := disk.NumPages(); got != livePages {
		t.Fatalf("failed swap left %d live pages, want %d (fresh pools' pages not freed)", got, livePages)
	}
	if total := sizesSum(); total != oracle.Len() {
		t.Fatalf("partition sizes after the failed swap sum to %d, want %d", total, oracle.Len())
	}
	mustMatchOracle(t, s, oracle, ids, "after failed swap")
	// The disk heals. The old manager still takes every verb.
	disk.left = -1
	for _, id := range ids {
		o, _ := oracle.Get(id)
		upd := o
		upd.Pos, upd.T = o.PosAt(5), 5
		if err := s.Report(upd); err != nil {
			t.Fatalf("update of %d after the failed swap: %v", id, err)
		}
		_ = oracle.Update(o, upd)
	}
	for _, id := range ids[:40] {
		if err := s.Remove(id); err != nil {
			t.Fatalf("remove of %d after the failed swap: %v", id, err)
		}
		o, _ := oracle.Get(id)
		_ = oracle.Delete(o)
	}
	mustMatchOracle(t, s, oracle, ids, "after writes following the failed swap")

	// A failed swap leaves nothing half-done, so an automatic check on
	// unchanged traffic reads ~zero drift and has nothing to finish...
	s.driftCheck()
	if last.Op != MaintDriftCheck || last.Err != nil || last.Swapped || last.Drift > DefaultDriftThreshold {
		t.Fatalf("check after the failed swap: %+v (want a clean sub-threshold check, no swap)", last)
	}
	if !samePools(s, pools) {
		t.Fatal("sub-threshold check replaced the pools")
	}
	// ...and the manual trigger goes through.
	if err := s.Repartition(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PartitionEpoch != 5 || st.Repartitions != 2 || len(s.Pools()) != len(pools) || samePools(s, pools) {
		t.Fatalf("repartition after the failed swap: %+v, %d pools", st, len(s.Pools()))
	}
	if total := sizesSum(); total != oracle.Len() {
		t.Fatalf("partition sizes sum to %d, want %d", total, oracle.Len())
	}
	mustMatchOracle(t, s, oracle, ids, "after repartition")
}

// TestBootstrapSwapFailureRearmsTrip drives the bootstrap — the first call of
// the one migration routine — through a failed swap: the tripping write still
// succeeds, the failure is a MaintBootstrap event, the unpartitioned manager
// and its one pool keep serving, and the trip re-arms a full sample later, when the bootstrap
// analyzes everything collected so far and goes through.
func TestBootstrapSwapFailureRearmsTrip(t *testing.T) {
	const threshold = 100
	var evs []MaintenanceEvent
	s, err := Open(WithKind(TPRStar), WithDomain(R(0, 0, 20000, 20000)), WithShards(2),
		WithVelocityPartitioning(2), WithAutoPartition(threshold), WithSeed(5),
		WithMaintenanceHook(func(ev MaintenanceEvent) { evs = append(evs, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	disk := &budgetDisk{PageStore: s.disk, left: 1}
	s.disk = disk
	pool := s.Pools()[0]
	rng := rand.New(rand.NewSource(9))
	oracle := model.NewBruteForce()
	var ids []ObjectID
	for i := 1; i <= threshold; i++ {
		o := gridObject(i, rng)
		if err := s.Report(o); err != nil {
			t.Fatalf("report %d surfaced a maintenance failure: %v", i, err)
		}
		_ = oracle.Insert(o)
		ids = append(ids, o.ID)
	}
	if len(evs) != 1 || evs[0].Op != MaintBootstrap || evs[0].Err == nil || evs[0].Swapped || evs[0].SampleSize != threshold {
		t.Fatalf("events after the failed bootstrap: %+v", evs)
	}
	if s.Partitioned() || s.LastMaintenanceError() == nil || len(s.Partitions()) != 0 {
		t.Fatal("failed bootstrap left the store partitioned or unreported")
	}
	if c, target := s.BootstrapProgress(); c != threshold || target != 2*threshold {
		t.Fatalf("progress after the failed bootstrap: %d/%d", c, target)
	}
	if got := s.Pools(); len(got) != 1 || got[0] != pool {
		t.Fatalf("live pools after the failed bootstrap: %d, want the one unpartitioned pool", len(got))
	}
	if _, ok := s.Analysis(); ok {
		t.Fatal("analysis reported before a completed bootstrap")
	}
	if err := s.Repartition(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Repartition before the bootstrap: %v", err)
	}
	evs = evs[:1]
	mustMatchOracle(t, s, oracle, ids, "after failed bootstrap")

	disk.left = -1
	for i := 1; i <= threshold; i++ {
		if s.Partitioned() {
			t.Fatalf("bootstrapped %d reports before the re-armed trip", threshold-i+1)
		}
		old, _ := oracle.Get(ObjectID(i))
		o := gridObject(i, rng)
		if err := s.Report(o); err != nil {
			t.Fatal(err)
		}
		_ = oracle.Update(old, o)
	}
	an, ok := s.Analysis()
	if !ok || !s.Partitioned() || an.SampleSize != threshold || len(s.Partitions()) != 3 {
		t.Fatalf("after the re-armed trip: partitioned %v, analysis %+v", s.Partitioned(), an)
	}
	if len(evs) != 2 || evs[1].Op != MaintBootstrap || evs[1].Err != nil || !evs[1].Swapped ||
		evs[1].SampleSize != threshold || evs[1].Objective != ObjectiveDVA {
		t.Fatalf("events after the bootstrap: %+v", evs)
	}
	if st := s.Stats(); st.Repartitions != 0 || st.PartitionEpoch != 2 {
		t.Fatalf("bootstrap counted as a repartition, or a failed attempt did not consume an epoch: %+v", st)
	}
	if err := s.LastMaintenanceError(); err != nil {
		t.Fatal(err)
	}
	mustMatchOracle(t, s, oracle, ids, "after bootstrap")
}
