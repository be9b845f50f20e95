package vpindex_test

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	vpindex "repro"
)

// durableOpts is the base configuration for the durability tests: a sharded,
// velocity-partitioned store with the online bootstrap, small enough that a
// full Open/recover cycle is cheap.
func durableOpts(extra ...vpindex.Option) []vpindex.Option {
	opts := []vpindex.Option{
		vpindex.WithKind(vpindex.TPRStar),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithAutoPartition(16),
		vpindex.WithSeed(5),
	}
	return append(opts, extra...)
}

// wholeDomain is a time-slice query that matches every live object: the rect
// is so much larger than the domain that no reachable position escapes it.
func wholeDomain() vpindex.RangeQuery {
	return vpindex.RectSliceQuery(vpindex.R(-1e6, -1e6, 1e6, 1e6), 0, 0)
}

func TestDurableStoreRecoversState(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(vpindex.WithDataDir(dir))
	store, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.DurabilityStats(); !ok {
		t.Fatal("durable store reports no durability stats")
	}

	rng := rand.New(rand.NewSource(42))
	live := map[vpindex.ObjectID]vpindex.Object{}
	for i := 1; i <= 60; i++ {
		o := testObject(i, rng)
		if err := store.Report(o); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		live[o.ID] = o
	}
	// Known IDs report again: the later report wins, visible at return.
	for i := 1; i <= 20; i++ {
		o := testObject(i, rng)
		o.T = 1
		if err := store.Report(o); err != nil {
			t.Fatalf("re-report %d: %v", i, err)
		}
		live[o.ID] = o
		if got, ok := store.Get(o.ID); !ok || got != o {
			t.Fatalf("re-report %d not visible at return: got %+v ok=%v", i, got, ok)
		}
	}
	for _, id := range []vpindex.ObjectID{7, 21, 40} {
		if err := store.Remove(id); err != nil {
			t.Fatalf("remove %d: %v", id, err)
		}
		delete(live, id)
	}
	sub := vpindex.Subscription{Query: wholeDomain(), Horizon: 1000}
	subID, _, err := store.Subscribe(sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantSub, err := store.SubscriptionResults(subID)
	if err != nil {
		t.Fatal(err)
	}
	wantSearch, err := store.Search(wholeDomain())
	if err != nil {
		t.Fatal(err)
	}
	partitioned := store.Partitioned()
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	recovered, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer recovered.Close()
	if got := recovered.Len(); got != len(live) {
		t.Fatalf("recovered Len = %d, want %d", got, len(live))
	}
	for id, want := range live {
		got, ok := recovered.Get(id)
		if !ok || got != want {
			t.Fatalf("recovered Get(%d) = %+v, %v; want %+v", id, got, ok, want)
		}
	}
	if _, ok := recovered.Get(7); ok {
		t.Fatal("removed object resurrected by recovery")
	}
	gotSearch, err := recovered.Search(wholeDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(gotSearch), sortedIDs(wantSearch)) {
		t.Fatalf("recovered Search = %v, want %v", gotSearch, wantSearch)
	}
	if got := recovered.NumSubscriptions(); got != 1 {
		t.Fatalf("recovered NumSubscriptions = %d, want 1", got)
	}
	gotSub, err := recovered.SubscriptionResults(subID)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(gotSub), sortedIDs(wantSub)) {
		t.Fatalf("recovered subscription results = %v, want %v", gotSub, wantSub)
	}
	if got := recovered.Partitioned(); got != partitioned {
		t.Fatalf("recovered Partitioned = %v, want %v", got, partitioned)
	}
	st, _ := recovered.DurabilityStats()
	if st.ReplayedRecords == 0 {
		t.Fatal("recovery replayed nothing")
	}
}

func TestCheckpointReclaimsWALAndBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(vpindex.WithDataDir(dir), vpindex.WithWALSegmentBytes(2048))
	store, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 1; i <= 120; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := store.DurabilityStats()
	if before.WALSegments < 2 {
		t.Fatalf("expected rotation before checkpoint, got %d segments", before.WALSegments)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	after, _ := store.DurabilityStats()
	if after.Checkpoints != 1 || after.CheckpointLSN == 0 {
		t.Fatalf("checkpoint stats = %+v", after)
	}
	if after.WALSegments >= before.WALSegments {
		t.Fatalf("checkpoint reclaimed nothing: %d -> %d segments", before.WALSegments, after.WALSegments)
	}

	// A short tail after the checkpoint: recovery must replay only the tail,
	// not the 120 records the snapshot already covers.
	if err := store.Report(testObject(200, rng)); err != nil {
		t.Fatal(err)
	}
	if err := store.Remove(3); err != nil {
		t.Fatal(err)
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
		t.Fatalf("recovery open: %v", err)
	}
	defer recovered.Close()
	got, err := recovered.Search(wholeDomain())
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(got), sortedIDs(want)) {
		t.Fatalf("recovered Search = %v, want %v", got, want)
	}
	st, _ := recovered.DurabilityStats()
	if st.ReplayedRecords == 0 || st.ReplayedRecords >= 120 {
		t.Fatalf("replayed %d records, want a short tail (checkpoint not honored)", st.ReplayedRecords)
	}
}

func TestAutoCheckpointFires(t *testing.T) {
	store, err := vpindex.Open(durableOpts(
		vpindex.WithDataDir(t.TempDir()),
		vpindex.WithCheckpointEvery(25),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= 80; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	store.MaintainNow()
	if st, _ := store.DurabilityStats(); st.Checkpoints < 1 {
		t.Fatal("auto-checkpoint never fired")
	}
}

func TestCheckpointRequiresDurableStore(t *testing.T) {
	store, err := vpindex.Open(durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); !errors.Is(err, vpindex.ErrUnsupported) {
		t.Fatalf("checkpoint on mem store = %v, want ErrUnsupported", err)
	}
	if _, ok := store.DurabilityStats(); ok {
		t.Fatal("mem store claims durability stats")
	}
}

// TestV1CheckpointRejected pins the single on-disk format: a checkpoint
// file stamped with the retired version 1 must fail Open with the
// unsupported-version error, not panic and not be misread as a snapshot.
func TestV1CheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	store, err := vpindex.Open(durableOpts(vpindex.WithDataDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Report(vpindex.Object{ID: 1, Pos: vpindex.V(100, 100), Vel: vpindex.V(5, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint.ckpt")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[4:], 1) // the version word follows the magic
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vpindex.Open(durableOpts(vpindex.WithDataDir(dir))...); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("open over a v1 checkpoint: err = %v, want unsupported version 1", err)
	}
}

func TestRecoveryAfterAbandonedStore(t *testing.T) {
	// A store abandoned without Close models a plain crash: under SyncAlways,
	// every acknowledged verb — including an unsubscribe — must survive.
	dir := t.TempDir()
	opts := durableOpts(vpindex.WithDataDir(dir), vpindex.WithSyncPolicy(vpindex.SyncAlways()))
	store, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 1; i <= 30; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	keepID, _, err := store.Subscribe(vpindex.Subscription{Query: wholeDomain(), Horizon: 1000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dropID, _, err := store.Subscribe(vpindex.Subscription{Query: wholeDomain(), Horizon: 1000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Unsubscribe(dropID); err != nil {
		t.Fatal(err)
	}
	want, err := store.SubscriptionResults(keepID)
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the dirty process just stops.

	recovered, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer recovered.Close()
	if got := recovered.NumSubscriptions(); got != 1 {
		t.Fatalf("recovered NumSubscriptions = %d, want 1", got)
	}
	if _, err := recovered.SubscriptionResults(dropID); err == nil {
		t.Fatal("unsubscribed id resurrected by recovery")
	}
	got, err := recovered.SubscriptionResults(keepID)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(got), sortedIDs(want)) {
		t.Fatalf("recovered subscription = %v, want %v", got, want)
	}
}

// ---------------------------------------------------------------------------
// Kill-point differential oracle.
// ---------------------------------------------------------------------------

// durOp is one scripted operation for the crash oracle.
type durOp struct {
	kind byte // 's' subscribe, 'r' report, 'd' remove
	obj  vpindex.Object
	id   vpindex.ObjectID
}

// oracleScript builds a deterministic single-threaded op sequence: a
// subscription over the whole domain, then interleaved reports and removes
// over a small id space. The report volume crosses the auto-partition
// threshold, so the kill matrix also lands inside the bootstrap cutover and
// its partition-swap record.
func oracleScript(seed int64, n int) []durOp {
	rng := rand.New(rand.NewSource(seed))
	script := []durOp{{kind: 's'}}
	live := map[vpindex.ObjectID]bool{}
	for len(script) < n {
		if len(live) > 3 && rng.Intn(5) == 0 {
			ids := make([]vpindex.ObjectID, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			id := sortedIDs(ids)[rng.Intn(len(ids))]
			script = append(script, durOp{kind: 'd', id: id})
			delete(live, id)
			continue
		}
		o := testObject(1+rng.Intn(12), rng)
		script = append(script, durOp{kind: 'r', obj: o})
		live[o.ID] = true
	}
	return script
}

// applyOp drives one scripted op against a live store.
func applyOp(s *vpindex.Store, op durOp) error {
	switch op.kind {
	case 's':
		_, _, err := s.Subscribe(vpindex.Subscription{Query: wholeDomain(), Horizon: 1000}, 0)
		return err
	case 'd':
		return s.Remove(op.id)
	default:
		return s.Report(op.obj)
	}
}

// oraclePrefix computes the brute-force survivor state after the first m
// scripted ops: the live object map and whether the subscription exists. The
// subscription covers the whole domain with a huge horizon, so its result
// set is exactly the live set — no engine simulation needed.
func oraclePrefix(script []durOp, m int) (live map[vpindex.ObjectID]vpindex.Object, subscribed bool) {
	live = map[vpindex.ObjectID]vpindex.Object{}
	for _, op := range script[:m] {
		switch op.kind {
		case 's':
			subscribed = true
		case 'd':
			delete(live, op.id)
		default:
			live[op.obj.ID] = op.obj
		}
	}
	return live, subscribed
}

// matchesPrefix reports whether the recovered store's full state — Len, Get,
// Search, subscription registry and result set — equals the brute-force
// survivor at prefix m.
func matchesPrefix(t *testing.T, s *vpindex.Store, script []durOp, m int) bool {
	t.Helper()
	live, subscribed := oraclePrefix(script, m)
	if s.Len() != len(live) {
		return false
	}
	for id, want := range live {
		got, ok := s.Get(id)
		if !ok || got != want {
			return false
		}
	}
	found, err := s.Search(wholeDomain())
	if err != nil {
		t.Fatalf("recovered search: %v", err)
	}
	wantIDs := make([]vpindex.ObjectID, 0, len(live))
	for id := range live {
		wantIDs = append(wantIDs, id)
	}
	if !equalIDs(sortedIDs(found), sortedIDs(wantIDs)) {
		return false
	}
	wantSubs := 0
	if subscribed {
		wantSubs = 1
	}
	if s.NumSubscriptions() != wantSubs {
		return false
	}
	if subscribed {
		// The script's subscribe is op 0 in a fresh store: id 1.
		members, err := s.SubscriptionResults(vpindex.SubscriptionID(1))
		if err != nil {
			return false
		}
		if !equalIDs(sortedIDs(members), sortedIDs(wantIDs)) {
			return false
		}
	}
	return true
}

// TestKillPointRecoveryOracle is the crash-recovery differential oracle: for
// every sync point N the injector kills the process image mid-fsync; the
// recovered store must equal the brute-force survivor of some acknowledged-
// consistent prefix. Under a synchronous policy the admissible prefixes are
// exactly {acked, acked+1}: every acked op is durable, and only the op that
// died mid-commit may have reached the log (its bytes landed before the
// failed fsync) or an overlapping checkpoint.
func TestKillPointRecoveryOracle(t *testing.T) {
	script := oracleScript(1337, 36)
	policies := map[string]vpindex.SyncPolicy{
		"always": vpindex.SyncAlways(),
	}
	if !testing.Short() {
		policies["group-commit"] = vpindex.SyncGroupCommit(100 * time.Microsecond)
	}
	for name, pol := range policies {
		t.Run(name, func(t *testing.T) {
			for killAt := int64(1); ; killAt++ {
				dir := t.TempDir()
				fi := vpindex.NewFaultInjector(killAt)
				opts := durableOpts(
					vpindex.WithDataDir(dir),
					vpindex.WithSyncPolicy(pol),
					vpindex.WithFaultInjector(fi),
					vpindex.WithCheckpointEvery(10),
					vpindex.WithWALSegmentBytes(2048),
				)
				store, err := vpindex.Open(opts...)
				if err != nil {
					t.Fatalf("killAt %d: open: %v", killAt, err)
				}
				acked := 0
				crashed := false
				for _, op := range script {
					if err := applyOp(store, op); err != nil {
						if !errors.Is(err, vpindex.ErrInjectedCrash) {
							t.Fatalf("killAt %d: op %d failed with %v, not an injected crash", killAt, acked, err)
						}
						crashed = true
						break
					}
					acked++
				}
				if !crashed {
					// The script outran the kill point (or the kill landed in a
					// background checkpoint, which loses no acknowledged op):
					// recovery must now yield the complete state, and higher
					// kill points change nothing more.
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
						t.Logf("matrix covered %d kill points", killAt-1)
						return
					}
					continue
				}
				_ = store.Close() // release descriptors; the injector blocks any further effect

				recovered, err := vpindex.Open(durableOpts(vpindex.WithDataDir(dir))...)
				if err != nil {
					t.Fatalf("killAt %d: recovery open: %v", killAt, err)
				}
				ok := matchesPrefix(t, recovered, script, acked) ||
					(acked+1 <= len(script) && matchesPrefix(t, recovered, script, acked+1))
				if !ok {
					t.Fatalf("killAt %d (policy %s): recovered state matches neither prefix %d nor %d of the script",
						killAt, name, acked, acked+1)
				}
				recovered.Close()
			}
		})
	}
}

func equalIDs(a, b []vpindex.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
