package vpindex_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	vpindex "repro"
	"repro/internal/wal"
)

func TestPermanentWALFaultDegradesToReadOnly(t *testing.T) {
	fi := vpindex.NewScriptedInjector(
		vpindex.FaultRule{Op: vpindex.OpWALAppend, Seq: 3, Kind: vpindex.FaultPermanentEIO},
	)
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.TPRStar),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(2),
		vpindex.WithDataDir(t.TempDir()),
		vpindex.WithFaultInjector(fi),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rng := rand.New(rand.NewSource(1))
	if err := store.Report(testObject(1, rng)); err != nil {
		t.Fatalf("report 1: %v", err)
	}
	if err := store.Report(testObject(2, rng)); err != nil {
		t.Fatalf("report 2: %v", err)
	}
	// The third append hits the permanent fault: the write fails with a
	// media fault and the store degrades.
	err = store.Report(testObject(3, rng))
	if err == nil {
		t.Fatal("write over a permanently failed log succeeded")
	}
	if !vpindex.IsMediaFault(err) {
		t.Fatalf("write error %v, want a media fault", err)
	}
	if got := store.Health(); got != vpindex.HealthDegraded {
		t.Fatalf("Health = %v, want degraded", got)
	}
	// Writes are now refused with ErrDegraded, before touching storage.
	for _, werr := range []error{
		store.Report(testObject(4, rng)),
		store.Remove(1),
		store.ReportBatch([]vpindex.Object{testObject(5, rng)}),
	} {
		if !errors.Is(werr, vpindex.ErrDegraded) {
			t.Fatalf("write on degraded store = %v, want ErrDegraded", werr)
		}
	}
	if _, _, serr := store.Subscribe(vpindex.Subscription{Query: wholeDomain(), Horizon: 100}, 0); !errors.Is(serr, vpindex.ErrDegraded) {
		t.Fatalf("subscribe on degraded store = %v, want ErrDegraded", serr)
	}
	// Reads keep serving the pre-fault state.
	if _, ok := store.Get(1); !ok {
		t.Fatal("degraded store lost a read")
	}
	// The failed write was applied in memory before its log append failed, so
	// it stays visible here (3 objects) — but it is not durable, and the
	// degraded store can accept nothing further.
	ids, err := store.Search(wholeDomain())
	if err != nil {
		t.Fatalf("search on degraded store: %v", err)
	}
	if len(ids) != 3 {
		t.Fatalf("degraded Search found %d objects, want 3", len(ids))
	}
	st, ok := store.DurabilityStats()
	if !ok || st.Health != vpindex.HealthDegraded || st.HealthReason == "" {
		t.Fatalf("DurabilityStats health = %+v, want degraded with a reason", st)
	}
}

// TestTransientFaultsAreInvisibleToClients pins that a transient fault — a
// latency spike that delays a WAL append or fsync without failing it — only
// slows the writes that wait on it: every report succeeds and the store stays
// healthy.
func TestTransientFaultsAreInvisibleToClients(t *testing.T) {
	const spike = 20 * time.Millisecond
	fi := vpindex.NewScriptedInjector(
		vpindex.FaultRule{Op: vpindex.OpWALAppend, Seq: 2, Kind: vpindex.FaultLatency, Latency: spike},
		vpindex.FaultRule{Op: vpindex.OpWALSync, Seq: 1, Kind: vpindex.FaultLatency, Latency: spike},
	)
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(1),
		vpindex.WithDataDir(t.TempDir()),
		vpindex.WithFaultInjector(fi),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(2))
	start := time.Now()
	for i := 1; i <= 5; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatalf("report %d over latency spikes: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed < 2*spike {
		t.Fatalf("5 reports took %v, want >= %v (both scripted spikes applied)", elapsed, 2*spike)
	}
	if got := store.Health(); got != vpindex.HealthHealthy {
		t.Fatalf("Health = %v after latency spikes, want healthy", got)
	}
	if fi.InjectedFaults() != 0 {
		t.Fatalf("InjectedFaults = %d, want 0 (latency is not a failure)", fi.InjectedFaults())
	}
}

// TestOneShotFaultReachesClient pins that an I/O error is final: a fault
// scripted for one fsync only is not retried away but fails the write that
// waited on it and degrades the store.
func TestOneShotFaultReachesClient(t *testing.T) {
	fi := vpindex.NewScriptedInjector(
		vpindex.FaultRule{Op: vpindex.OpWALSync, Seq: 2, Kind: vpindex.FaultSyncFail},
	)
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(1),
		vpindex.WithDataDir(t.TempDir()),
		vpindex.WithFaultInjector(fi),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(2))
	if err := store.Report(testObject(1, rng)); err != nil {
		t.Fatalf("report 1 before the fault: %v", err)
	}
	if err := store.Report(testObject(2, rng)); !vpindex.IsMediaFault(err) {
		t.Fatalf("report 2 over a one-shot fsync fault = %v, want the media fault", err)
	}
	if got := store.Health(); got != vpindex.HealthDegraded {
		t.Fatalf("Health = %v after a one-shot fault, want degraded", got)
	}
	if err := store.Report(testObject(3, rng)); !errors.Is(err, vpindex.ErrDegraded) {
		t.Fatalf("report 3 after the fault = %v, want ErrDegraded", err)
	}
	if fi.InjectedFaults() != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", fi.InjectedFaults())
	}
}

// corruptLiveSlot flips one byte inside the first non-zero data slot of the
// page file, behind the store's back. Slot layout: 4096-byte page + 8-byte
// CRC trailer; slot 0 is never a page.
func corruptLiveSlot(t *testing.T, path string) {
	t.Helper()
	const slotSize = 4096 + 8
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; (slot+1)*slotSize <= len(data); slot++ {
		off := slot * slotSize
		for i := off; i < off+slotSize; i++ {
			if data[i] != 0 {
				f, err := os.OpenFile(path, os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteAt([]byte{data[off+100] ^ 0x5A}, int64(off+100)); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	t.Fatal("no physically written data slot found to corrupt")
}

// TestCorruptPageDegradesOnRead pins that the read path, not a scrub, finds
// a corrupt page of the scratch page file: the first query that reads it
// fails with ErrCorruptPage and degrades the store, which keeps serving reads
// from memory.
func TestCorruptPageDegradesOnRead(t *testing.T) {
	dir := t.TempDir()
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.TPRStar),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(1),
		vpindex.WithBufferPages(4), // force evictions so pages reach disk
		vpindex.WithDataDir(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= 1200; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	// A whole-domain search reads every page through the 4 frames, so it
	// writes back every dirty one: no write-back can repair the slot
	// corrupted next, and the cached frames it leaves are clean.
	if _, err := store.Search(wholeDomain()); err != nil {
		t.Fatal(err)
	}
	corruptLiveSlot(t, filepath.Join(dir, "pages.dat"))
	for i := 0; i < 3 && err == nil; i++ {
		_, err = store.Search(wholeDomain())
	}
	if !errors.Is(err, vpindex.ErrCorruptPage) {
		t.Fatalf("search over a corrupt page = %v, want ErrCorruptPage", err)
	}
	st, _ := store.DurabilityStats()
	if st.Health != vpindex.HealthDegraded || st.HealthReason == "" {
		t.Fatalf("health after the corrupt read = %v (%q), want degraded with a reason", st.Health, st.HealthReason)
	}
	if werr := store.Report(testObject(1201, rng)); !errors.Is(werr, vpindex.ErrDegraded) {
		t.Fatalf("write after the corrupt read = %v, want ErrDegraded", werr)
	}
	// The id→record tables are in memory; point reads keep serving.
	if _, ok := store.Get(40); !ok {
		t.Fatal("degraded store lost a record")
	}
}

// walScrubOpts configures a durable Store whose log rotates every 4 KB, so a
// few hundred reports leave several sealed segments for the scrubber.
func walScrubOpts(dir string, extra ...vpindex.Option) []vpindex.Option {
	opts := []vpindex.Option{
		vpindex.WithKind(vpindex.TPRStar),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(1),
		vpindex.WithDataDir(dir),
		vpindex.WithWALSegmentBytes(4096),
	}
	return append(opts, extra...)
}

// reportAll reports n fresh objects and returns them: the acknowledged
// records a reopen must bring back.
func reportAll(t *testing.T, store *vpindex.Store, n int, seed int64) []vpindex.Object {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]vpindex.Object, n)
	for i := range objs {
		objs[i] = testObject(i+1, rng)
		if err := store.Report(objs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return objs
}

// corruptSealedSegment flips one byte in the middle of the oldest log
// segment, behind the store's back, and returns the segment's path. The
// segment has a successor, so it is sealed and the scrubber reads it.
func corruptSealedSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	if len(segs) < 2 {
		t.Fatalf("want >= 2 WAL segments, got %d", len(segs))
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0xFF}, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	return segs[0]
}

// checkScrubbedSegmentRepaired asserts what a scrub that found the corrupt
// sealed segment seg leaves behind, and how it is repaired: the store is
// degraded by a wal.ErrCorrupt, keeps serving reads, still checkpoints — which
// reclaims seg — and a reopen brings back every record in objs, healthy.
func checkScrubbedSegmentRepaired(t *testing.T, store *vpindex.Store, opts []vpindex.Option, objs []vpindex.Object, seg string) {
	t.Helper()
	st, _ := store.DurabilityStats()
	if st.Health != vpindex.HealthDegraded || st.ScrubCorruptions < 1 {
		t.Fatalf("after the scrub: health %v, %d scrub corruptions; want degraded, >= 1", st.Health, st.ScrubCorruptions)
	}
	werr := store.Report(testObject(len(objs)+1, rand.New(rand.NewSource(1))))
	if !errors.Is(werr, vpindex.ErrDegraded) || !errors.Is(werr, wal.ErrCorrupt) {
		t.Fatalf("write after the scrub = %v, want ErrDegraded caused by wal.ErrCorrupt", werr)
	}
	if _, ok := store.Get(objs[0].ID); !ok {
		t.Fatal("degraded store lost a record")
	}
	if ids, err := store.Search(wholeDomain()); err != nil || len(ids) != len(objs) {
		t.Fatalf("degraded Search = %d ids, %v; want %d", len(ids), err, len(objs))
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatalf("checkpoint of the degraded store: %v", err)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("checkpoint left the corrupt segment %s (stat: %v)", seg, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Health(); got != vpindex.HealthHealthy {
		t.Fatalf("Health after reopen = %v, want healthy", got)
	}
	if reopened.Len() != len(objs) {
		t.Fatalf("reopened Len = %d, want %d", reopened.Len(), len(objs))
	}
	for _, o := range objs {
		if got, ok := reopened.Get(o.ID); !ok || got.Pos != o.Pos || got.Vel != o.Vel {
			t.Fatalf("record %d after reopen = %+v (%v), want %+v", o.ID, got, ok, o)
		}
	}
}

func TestScrubNowFindsLatentCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := walScrubOpts(dir)
	store, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	objs := reportAll(t, store, 300, 3)
	if err := store.ScrubNow(); err != nil {
		t.Fatalf("scrub of a clean store: %v", err)
	}
	seg := corruptSealedSegment(t, dir)
	if err := store.ScrubNow(); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("scrub over a corrupt segment = %v, want wal.ErrCorrupt", err)
	}
	if st, _ := store.DurabilityStats(); st.ScrubPasses != 2 {
		t.Fatalf("ScrubPasses = %d, want 2", st.ScrubPasses)
	}
	checkScrubbedSegmentRepaired(t, store, opts, objs, seg)
}

func TestBackgroundScrubberDegrades(t *testing.T) {
	dir := t.TempDir()
	opts := walScrubOpts(dir, vpindex.WithScrubEvery(2*time.Millisecond))
	store, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	objs := reportAll(t, store, 300, 4)
	seg := corruptSealedSegment(t, dir)
	deadline := time.Now().Add(10 * time.Second)
	for store.Health() != vpindex.HealthDegraded {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber never found the corruption")
		}
		time.Sleep(time.Millisecond)
	}
	checkScrubbedSegmentRepaired(t, store, opts, objs, seg)
}

// TestScrubRacingCheckpointStaysHealthy runs scrubs back to back while
// checkpoints reclaim WAL segments. A segment the scrub listed can vanish
// before it is read; that is reclamation, not corruption, and must leave a
// healthy store healthy.
func TestScrubRacingCheckpointStaysHealthy(t *testing.T) {
	store, err := vpindex.Open(
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithDataDir(t.TempDir()),
		vpindex.WithSyncPolicy(vpindex.SyncNone()),
		vpindex.WithWALSegmentBytes(4096),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := store.ScrubNow(); err != nil {
				t.Errorf("scrub: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	rng := rand.New(rand.NewSource(6))
	for i := 1; i <= 20000; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatal(err)
		}
		if i%200 == 0 {
			if err := store.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := store.Health(); got != vpindex.HealthHealthy {
		st, _ := store.DurabilityStats()
		t.Fatalf("Health = %v (%s), want healthy", got, st.HealthReason)
	}
}

func TestScrubNowNonDurable(t *testing.T) {
	store, err := vpindex.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.ScrubNow(); !errors.Is(err, vpindex.ErrUnsupported) {
		t.Fatalf("ScrubNow on a non-durable store = %v, want ErrUnsupported", err)
	}
}

// TestScrubNowRefusedAfterClose pins ScrubNow to Checkpoint's health rule: a
// degraded store still scrubs, a closed one refuses with ErrFailed, reads
// nothing, counts no pass and reports no event.
func TestScrubNowRefusedAfterClose(t *testing.T) {
	dir := t.TempDir()
	var scrubs atomic.Int64
	store, err := vpindex.Open(walScrubOpts(dir, vpindex.WithMaintenanceHook(func(ev vpindex.MaintenanceEvent) {
		if ev.Op == vpindex.MaintScrub {
			scrubs.Add(1)
		}
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, store, 300, 7)
	corruptSealedSegment(t, dir)
	for i := 0; i < 2; i++ {
		if err := store.ScrubNow(); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("scrub %d over a corrupt segment = %v, want wal.ErrCorrupt", i+1, err)
		}
	}
	if got := store.Health(); got != vpindex.HealthDegraded {
		t.Fatalf("Health = %v, want degraded", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.ScrubNow(); !errors.Is(err, vpindex.ErrFailed) {
		t.Fatalf("ScrubNow after Close = %v, want ErrFailed", err)
	}
	if st, _ := store.DurabilityStats(); st.ScrubPasses != 2 || scrubs.Load() != 2 {
		t.Fatalf("%d scrub passes and %d scrub events, want 2 of each: the closed store scrubbed", st.ScrubPasses, scrubs.Load())
	}
}

func TestMidLogCorruptionRecoversPrefixReadOnly(t *testing.T) {
	dir := t.TempDir()
	opts := []vpindex.Option{
		vpindex.WithKind(vpindex.TPRStar),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(2),
		vpindex.WithDataDir(dir),
		vpindex.WithWALSegmentBytes(4096),
	}
	store, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 200
	for i := 1; i <= n; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the middle of the FIRST segment: valid acknowledged records
	// exist beyond the bad frame (in later segments), so this is mid-log
	// corruption, not a benign torn tail.
	corruptSealedSegment(t, dir)

	// Reopen: the store must come up serving the intact prefix, read-only,
	// instead of silently dropping acknowledged history or refusing to open.
	recovered, err := vpindex.Open(opts...)
	if err != nil {
		t.Fatalf("open over mid-log corruption: %v", err)
	}
	defer recovered.Close()
	if got := recovered.Health(); got != vpindex.HealthDegraded {
		t.Fatalf("Health = %v, want degraded", got)
	}
	got := recovered.Len()
	if got == 0 || got >= n {
		t.Fatalf("recovered Len = %d, want a proper non-empty prefix of %d", got, n)
	}
	// The earliest records precede the corruption and must have survived.
	if _, ok := recovered.Get(1); !ok {
		t.Fatal("first record lost from the intact prefix")
	}
	if werr := recovered.Report(testObject(n+1, rng)); !errors.Is(werr, vpindex.ErrDegraded) {
		t.Fatalf("write on corrupt-log store = %v, want ErrDegraded", werr)
	}
	st, _ := recovered.DurabilityStats()
	if st.HealthReason == "" {
		t.Fatal("degraded store records no reason")
	}
}

func TestCloseIsIdempotentAndConcurrent(t *testing.T) {
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.TPRStar),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(2),
		vpindex.WithDataDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 1; i <= 10; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 10)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = store.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close %d: %v", i, err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
	if got := store.Health(); got != vpindex.HealthFailed {
		t.Fatalf("Health after Close = %v, want failed", got)
	}
	if werr := store.Report(testObject(11, rng)); !errors.Is(werr, vpindex.ErrFailed) {
		t.Fatalf("write after Close = %v, want ErrFailed", werr)
	}
	// Reads still answer from the final in-memory state.
	if _, ok := store.Get(5); !ok {
		t.Fatal("closed store lost its in-memory state")
	}
}

func TestHealthStringAndNonDurableDefaults(t *testing.T) {
	if vpindex.HealthHealthy.String() != "healthy" ||
		vpindex.HealthDegraded.String() != "degraded" ||
		vpindex.HealthFailed.String() != "failed" {
		t.Fatal("Health.String misnames a state")
	}
	store, err := vpindex.Open()
	if err != nil {
		t.Fatal(err)
	}
	if store.Health() != vpindex.HealthHealthy {
		t.Fatal("non-durable store not healthy")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}
