package vpindex_test

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	vpindex "repro"
)

// TestDeltaChainRecoveryEquivalence drives the same scripted workload into
// two durable stores — one checkpointing mid-stream (full snapshot plus a
// two-delta chain), one never checkpointing — and requires the recovered
// states to be identical: same objects, same search results, same
// subscription result set. The checkpointed store must also replay a
// strictly shorter WAL tail, proving the chain actually covered the prefix.
//
// Spliced into the random script are the histories the chain fold and the
// single per-stripe dirty set must get right: id 100 is in the full snapshot,
// tombstoned in delta 1, re-reported in delta 2 and removed in the WAL tail;
// id 101 is inserted and removed between two captures (a tombstone for an id
// no element carries); and delta 2's first write fails (scripted fsync fault),
// after which ids it had captured are written again — 100 re-reported, 102
// removed — while 103 is not, before the retry that must cover all three.
func TestDeltaChainRecoveryEquivalence(t *testing.T) {
	base := oracleScript(7101, 48)
	rng := rand.New(rand.NewSource(7102))
	report := func(id int) durOp { return durOp{kind: 'r', obj: testObject(id, rng)} }
	remove := func(id vpindex.ObjectID) durOp { return durOp{kind: 'd', id: id} }
	var script []durOp
	ckptAfter := map[int]bool{} // op index -> the Checkpoint after it must succeed
	add := func(wantCkpt bool, ops ...durOp) {
		script = append(script, ops...)
		ckptAfter[len(script)-1] = wantCkpt
	}
	add(true, append(base[:16:16], report(100), report(102), report(103))...)     // full
	add(true, append(base[16:28:28], remove(100), report(101), remove(101))...)   // delta 1
	add(false, append(base[28:40:40], report(100), report(102), report(103))...)  // delta 2 fails
	add(true, report(100), remove(102))                                           // delta 2, retried
	script = append(script, append(base[40:len(base):len(base)], remove(100))...) // WAL tail

	dirA, dirB := t.TempDir(), t.TempDir()
	optsA := durableOpts(vpindex.WithDataDir(dirA))
	optsB := durableOpts(vpindex.WithDataDir(dirB))
	// Each element write makes two checkpoint fsyncs; the fifth is the first
	// of delta 2's.
	fi := vpindex.NewScriptedInjector(vpindex.FaultRule{Op: vpindex.OpCheckpointSync, Seq: 5, Kind: vpindex.FaultSyncFail})
	storeA, err := vpindex.Open(append(optsA, vpindex.WithFaultInjector(fi))...)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := vpindex.Open(optsB...)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range script {
		if err := applyOp(storeA, op); err != nil {
			t.Fatalf("store A op %d: %v", i, err)
		}
		if err := applyOp(storeB, op); err != nil {
			t.Fatalf("store B op %d: %v", i, err)
		}
		if want, ok := ckptAfter[i]; ok {
			if err := storeA.Checkpoint(); (err == nil) != want {
				t.Fatalf("checkpoint after op %d: err = %v, want success = %v", i, err, want)
			}
		}
	}
	stA, _ := storeA.DurabilityStats()
	if stA.Checkpoints != 3 || stA.DeltaChainLen != 2 {
		t.Fatalf("store A stats = %d checkpoints, chain %d; want 3 and 2", stA.Checkpoints, stA.DeltaChainLen)
	}
	if stA.CheckpointBytes <= 0 || stA.CheckpointPauseNs <= 0 || stA.CheckpointPauseMaxNs < stA.CheckpointPauseNs {
		t.Fatalf("checkpoint cost stats unpopulated: %+v", stA)
	}
	if deltas, _ := filepath.Glob(filepath.Join(dirA, "ckpt-*.delta")); len(deltas) != 2 {
		t.Fatalf("store A dir holds %d delta files, want 2", len(deltas))
	}
	if err := storeA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := storeB.Close(); err != nil {
		t.Fatal(err)
	}

	recA, err := vpindex.Open(optsA...)
	if err != nil {
		t.Fatalf("recovering chained store: %v", err)
	}
	defer recA.Close()
	recB, err := vpindex.Open(optsB...)
	if err != nil {
		t.Fatalf("recovering WAL-only store: %v", err)
	}
	defer recB.Close()

	if !matchesPrefix(t, recA, script, len(script)) {
		t.Fatal("chained recovery diverged from the scripted state")
	}
	if !matchesPrefix(t, recB, script, len(script)) {
		t.Fatal("WAL-only recovery diverged from the scripted state")
	}
	searchA, err := recA.Search(wholeDomain())
	if err != nil {
		t.Fatal(err)
	}
	searchB, err := recB.Search(wholeDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(searchA), sortedIDs(searchB)) {
		t.Fatalf("recovered searches diverge: %v vs %v", searchA, searchB)
	}
	subA, errA := recA.SubscriptionResults(vpindex.SubscriptionID(1))
	subB, errB := recB.SubscriptionResults(vpindex.SubscriptionID(1))
	if errA != nil || errB != nil {
		t.Fatalf("recovered subscription lookups: %v, %v", errA, errB)
	}
	if !equalIDs(sortedIDs(subA), sortedIDs(subB)) {
		t.Fatalf("recovered subscriptions diverge: %v vs %v", subA, subB)
	}
	replayA, _ := recA.DurabilityStats()
	replayB, _ := recB.DurabilityStats()
	if replayA.DeltaChainLen != 2 {
		t.Fatalf("recovered chain length = %d, want 2", replayA.DeltaChainLen)
	}
	if replayA.ReplayedRecords >= replayB.ReplayedRecords {
		t.Fatalf("chained store replayed %d records, WAL-only %d: the chain covered nothing",
			replayA.ReplayedRecords, replayB.ReplayedRecords)
	}
}

// TestCheckpointCompactionFoldsChain verifies the background fold: once the
// delta chain reaches the configured length, compaction rewrites the full
// snapshot, removes the delta files, and the next recovery sees a chain of
// zero with unchanged logical state.
func TestCheckpointCompactionFoldsChain(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(vpindex.WithDataDir(dir), vpindex.WithCheckpointCompaction(2, 0))
	store, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(88))
	live := map[vpindex.ObjectID]vpindex.Object{}
	report := func(n int) {
		for i := 0; i < n; i++ {
			o := testObject(1+rng.Intn(40), rng)
			if err := store.Report(o); err != nil {
				t.Fatal(err)
			}
			live[o.ID] = o
		}
	}
	report(30)
	if err := store.Checkpoint(); err != nil { // full snapshot, chain 0
		t.Fatal(err)
	}
	report(10)
	if err := store.Checkpoint(); err != nil { // delta, chain 1
		t.Fatal(err)
	}
	if st, _ := store.DurabilityStats(); st.Compactions != 0 || st.DeltaChainLen != 1 {
		t.Fatalf("below threshold: %d compactions, chain %d; want 0 and 1", st.Compactions, st.DeltaChainLen)
	}
	victim := mustAnyID(t, live)
	if err := store.Remove(victim); err != nil {
		t.Fatal(err)
	}
	delete(live, victim)
	report(10)
	if err := store.Checkpoint(); err != nil { // delta, chain 2 -> compaction due
		t.Fatal(err)
	}
	store.MaintainNow()
	if st, _ := store.DurabilityStats(); st.Compactions != 1 || st.DeltaChainLen != 0 {
		t.Fatalf("compaction did not fold the chain once: %+v", st)
	}
	if deltas, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.delta")); len(deltas) != 0 {
		t.Fatalf("%d delta files survive compaction", len(deltas))
	}
	want, err := store.Search(wholeDomain())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatalf("recovery after compaction: %v", err)
	}
	defer recovered.Close()
	got, err := recovered.Search(wholeDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(got), sortedIDs(want)) {
		t.Fatalf("post-compaction recovery = %v, want %v", got, want)
	}
	if st, _ := recovered.DurabilityStats(); st.DeltaChainLen != 0 {
		t.Fatalf("recovered chain length = %d after compaction, want 0", st.DeltaChainLen)
	}
}

// mustAnyID returns an arbitrary key of a non-empty live map.
func mustAnyID(t *testing.T, live map[vpindex.ObjectID]vpindex.Object) vpindex.ObjectID {
	t.Helper()
	for id := range live {
		return id
	}
	t.Fatal("live set empty")
	return 0
}

// TestBackgroundCheckpointNoPileup is the regression test for the unbounded
// cadence goroutines: with a checkpoint every record, a burst of reports used
// to spawn one background checkpoint per record, all queued on the checkpoint
// mutex and then running back to back. The maintenance loop runs one at a
// time. The maintenance hook holds the first background checkpoint open for
// the whole burst and counts how many are in it at once: never more than one.
func TestBackgroundCheckpointNoPileup(t *testing.T) {
	var inHook, most atomic.Int32
	entered, release := make(chan struct{}, 1), make(chan struct{})
	store, err := vpindex.Open(durableOpts(
		vpindex.WithDataDir(t.TempDir()),
		vpindex.WithCheckpointEvery(1),
		vpindex.WithMaintenanceHook(func(ev vpindex.MaintenanceEvent) {
			if ev.Op != vpindex.MaintCheckpoint {
				return
			}
			n := inHook.Add(1)
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			inHook.Add(-1)
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	defer close(release)
	rng := rand.New(rand.NewSource(6))
	for i := 1; i <= 300; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("no background checkpoint completed")
	}
	if n := most.Load(); n != 1 {
		t.Fatalf("%d background checkpoints in flight at once during the burst, want 1", n)
	}
	if st, _ := store.DurabilityStats(); st.Checkpoints < 1 {
		t.Fatalf("hook ran before its checkpoint was counted: %+v", st)
	}
}

// TestKillPointDeltaChainOracle extends the crash matrix to the chain
// machinery: the script checkpoints explicitly four times under a
// chain-length-2 compaction trigger, so the injector's kill points land
// inside the full-snapshot write, both delta writes, the background fold,
// and the WAL appends between them. Every recovered state must equal the
// brute-force survivor of an acknowledged-consistent prefix.
func TestKillPointDeltaChainOracle(t *testing.T) {
	script := oracleScript(4242, 30)
	ckptAfter := map[int]bool{7: true, 13: true, 19: true, 25: true}
	for killAt := int64(1); ; killAt++ {
		dir := t.TempDir()
		fi := vpindex.NewFaultInjector(killAt)
		opts := durableOpts(
			vpindex.WithDataDir(dir),
			vpindex.WithSyncPolicy(vpindex.SyncAlways()),
			vpindex.WithFaultInjector(fi),
			vpindex.WithCheckpointCompaction(2, 0),
			vpindex.WithWALSegmentBytes(2048),
		)
		store, err := vpindex.Open(opts...)
		if err != nil {
			t.Fatalf("killAt %d: open: %v", killAt, err)
		}
		acked := 0
		crashed := false
		for i, op := range script {
			if err := applyOp(store, op); err != nil {
				if !errors.Is(err, vpindex.ErrInjectedCrash) {
					t.Fatalf("killAt %d: op %d failed with %v, not an injected crash", killAt, acked, err)
				}
				crashed = true
				break
			}
			acked++
			if ckptAfter[i] {
				// A checkpoint that dies loses nothing acknowledged; stop
				// driving the store, recovery must still see every acked op.
				if err := store.Checkpoint(); err != nil {
					if !errors.Is(err, vpindex.ErrInjectedCrash) {
						t.Fatalf("killAt %d: checkpoint after op %d: %v", killAt, i, err)
					}
					crashed = true
					break
				}
			}
		}
		if !crashed {
			_ = store.Close()
			recovered, err := vpindex.Open(durableOpts(vpindex.WithDataDir(dir))...)
			if err != nil {
				t.Fatalf("killAt %d: final recovery: %v", killAt, err)
			}
			if !matchesPrefix(t, recovered, script, len(script)) {
				t.Fatalf("killAt %d: clean run did not recover the full script", killAt)
			}
			recovered.Close()
			if fi.SyncPoints() < killAt {
				t.Logf("delta-chain matrix covered %d kill points", killAt-1)
				return
			}
			continue
		}
		_ = store.Close()

		recovered, err := vpindex.Open(durableOpts(vpindex.WithDataDir(dir))...)
		if err != nil {
			t.Fatalf("killAt %d: recovery open: %v", killAt, err)
		}
		ok := matchesPrefix(t, recovered, script, acked) ||
			(acked+1 <= len(script) && matchesPrefix(t, recovered, script, acked+1))
		if !ok {
			t.Fatalf("killAt %d: recovered state matches neither prefix %d nor %d of the script",
				killAt, acked, acked+1)
		}
		recovered.Close()
	}
}
