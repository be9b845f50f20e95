package vpindex

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/storage"
)

// budgetDisk is a PageStore whose Allocate starts failing once a budget is
// spent, to make a partition swap die while it builds or fills a fresh
// manager. Swapped in for Store.disk, it is seen only by managers built
// afterwards: the live ones keep their pools over the real disk.
type budgetDisk struct {
	storage.PageStore
	left   int // allocations before failure; negative means unlimited
	allocs int // successful allocations so far
}

func (d *budgetDisk) Allocate() (storage.PageID, error) {
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

// TestSwapPartitionsFailureLeavesShardsServing pins the failure contract of
// the one migration routine: a swap that is rejected outright, or that dies
// after some shards already crossed, retires the fresh pools,
// leaves every shard's manager — old epoch or new — answering exactly and
// accepting updates and removals, and the next maintenance check finishes the
// epoch mix whatever the drift threshold says.
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
	wantPools := len(s.Pools())

	// A malformed analysis is rejected before any shard is touched (the
	// attempt still consumes an epoch number, like every failed swap).
	if err := s.swapPartitions(core.Analysis{Kind: core.KindSpeed, Frames: []core.Frame{{SpeedMax: 10}}}); err == nil {
		t.Fatal("malformed analysis accepted")
	}
	if got, _ := s.Analysis(); got.Kind != an.Kind || len(s.Partitions()) != len(an.Frames) {
		t.Fatalf("rejected swap changed the live analysis: %v, %d partitions", got.Kind, len(s.Partitions()))
	}
	if s.shards[0].epoch != 1 || s.shards[1].epoch != 1 || s.Stats().Repartitions != 0 {
		t.Fatalf("rejected swap moved a shard: epochs %d/%d, %d repartitions",
			s.shards[0].epoch, s.shards[1].epoch, s.Stats().Repartitions)
	}
	mustMatchOracle(t, s, oracle, ids, "after rejected analysis")

	// Measure what a full swap allocates, then allow three quarters of it:
	// shard 0 crosses, shard 1 dies mid-migration.
	disk := &budgetDisk{PageStore: s.disk, left: -1}
	s.disk = disk
	if err := s.swapPartitions(an); err != nil {
		t.Fatal(err)
	}
	disk.left = disk.allocs * 3 / 4
	if err := s.swapPartitions(an); err == nil {
		t.Fatal("swap over an exhausted disk succeeded")
	}
	if e0, e1 := s.shards[0].epoch, s.shards[1].epoch; e0 != 4 || e1 != 3 {
		t.Fatalf("epochs after the partial swap: %d/%d, want 4/3", e0, e1)
	}
	if got := len(s.Pools()); got != wantPools {
		t.Fatalf("live pools after the failed swap: %d, want %d (fresh pools not retired)", got, wantPools)
	}
	if n := s.Stats().Repartitions; n != 1 {
		t.Fatalf("failed swap counted as a repartition: %d", n)
	}
	mustMatchOracle(t, s, oracle, ids, "after partial swap")
	total := 0
	for _, p := range s.Partitions() { // mid-mix snapshot: shard 0's epoch only
		total += p.Size
	}
	if total == 0 || total >= oracle.Len() {
		t.Fatalf("partition sizes across an epoch mix sum to %d of %d", total, oracle.Len())
	}
	// The disk heals. Both sides of the mix still take every verb.
	disk.left = -1
	for _, id := range ids {
		o, _ := oracle.Get(id)
		upd := o
		upd.Pos, upd.T = o.PosAt(5), 5
		if err := s.Update(o, upd); err != nil {
			t.Fatalf("update of %d across the epoch mix: %v", id, err)
		}
		_ = oracle.Update(o, upd)
	}
	for _, id := range ids[:40] {
		if err := s.Remove(id); err != nil {
			t.Fatalf("remove of %d across the epoch mix: %v", id, err)
		}
		o, _ := oracle.Get(id)
		_ = oracle.Delete(o)
	}
	mustMatchOracle(t, s, oracle, ids, "after writes across the mix")

	// An automatic check on unchanged traffic reads ~zero drift, but must
	// still finish the mix.
	s.driftCheck()
	if last.Err != nil || !last.Swapped || last.Drift > DefaultDriftThreshold {
		t.Fatalf("finishing check: %+v (want a swap at sub-threshold drift)", last)
	}
	if e0, e1 := s.shards[0].epoch, s.shards[1].epoch; e0 != 5 || e1 != 5 {
		t.Fatalf("epochs after the finishing check: %d/%d, want 5/5", e0, e1)
	}
	total = 0
	for _, p := range s.Partitions() {
		total += p.Size
	}
	if total != oracle.Len() {
		t.Fatalf("partition sizes sum to %d, want %d", total, oracle.Len())
	}
	mustMatchOracle(t, s, oracle, ids, "after finishing check")
}

// TestBootstrapSwapFailureRearmsTrip drives the bootstrap — the first call of
// the one migration routine — through a failed swap: the tripping write still
// succeeds, the failure is a MaintBootstrap event, the unpartitioned managers
// keep serving, and the trip re-arms a full sample later, when the bootstrap
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
	if got := len(s.Pools()); got != 2 {
		t.Fatalf("live pools after the failed bootstrap: %d, want one per shard", got)
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
	if !ok || !s.Partitioned() || an.SampleSize != 2*threshold || len(s.Partitions()) != 3 {
		t.Fatalf("after the re-armed trip: partitioned %v, analysis %+v", s.Partitioned(), an)
	}
	if len(evs) != 2 || evs[1].Op != MaintBootstrap || evs[1].Err != nil || !evs[1].Swapped ||
		evs[1].SampleSize != 2*threshold || evs[1].Objective != ObjectiveDVA {
		t.Fatalf("events after the bootstrap: %+v", evs)
	}
	if st := s.Stats(); st.Repartitions != 0 || st.PartitionEpoch != 2 {
		t.Fatalf("bootstrap counted as a repartition, or a failed attempt did not consume an epoch: %+v", st)
	}
	if err := s.LastMaintenanceError(); err != nil {
		t.Fatal(err)
	}
	mustMatchOracle(t, s, oracle, ids, "after bootstrap")
	// The velocity rings are bounded again once the shards are swapped.
	for i, sh := range s.shards {
		if len(sh.res) > s.resCap {
			t.Fatalf("shard %d ring holds %d velocities, cap %d", i, len(sh.res), s.resCap)
		}
	}
}
