package storage

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// openTestStore opens a scratch FileStore with the given injector.
func openTestStore(t *testing.T, fi *FaultInjector) *FileStore {
	t.Helper()
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.dat"), FileStoreOptions{Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func TestCorruptPageDetectedOnRead(t *testing.T) {
	preadPath(t, testCorruptPageDetectedOnRead)
}

func testCorruptPageDetectedOnRead(t *testing.T) {
	fs := openTestStore(t, nil)
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	copy(page[:], "integrity matters")
	if err := fs.WritePage(id, &page); err != nil {
		t.Fatal(err)
	}
	// Bit rot: flip one byte of the persisted image behind the store's back.
	flipByte(t, fs.Path(), int64(id)*slotSize+100)

	var got [PageSize]byte
	err = fs.ReadPage(id, &got)
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read of corrupted page = %v, want ErrCorruptPage", err)
	}
	var cpe *CorruptPageError
	if !errors.As(err, &cpe) || cpe.ID != id {
		t.Fatalf("error %v does not carry the page id", err)
	}
	if fs.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", fs.Quarantined())
	}
	// Quarantine fails fast without touching disk.
	if err := fs.ReadPage(id, &got); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("second read = %v, want ErrCorruptPage", err)
	}
	// A full rewrite repairs the slot.
	if err := fs.WritePage(id, &page); err != nil {
		t.Fatal(err)
	}
	if fs.Quarantined() != 0 {
		t.Fatalf("Quarantined = %d after repair, want 0", fs.Quarantined())
	}
	if err := fs.ReadPage(id, &got); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if got != page {
		t.Fatal("repaired page has wrong contents")
	}
}

func TestTornWriteCaughtByChecksum(t *testing.T) {
	preadPath(t, testTornWriteCaughtByChecksum)
}

func testTornWriteCaughtByChecksum(t *testing.T) {
	fi := NewScriptedInjector(FaultRule{Op: OpPageWrite, Seq: 2, Kind: FaultTornWrite})
	fs := openTestStore(t, fi)
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	for i := range page {
		page[i] = byte(i)
	}
	if err := fs.WritePage(id, &page); err != nil {
		t.Fatal(err)
	}
	// Second write is torn: it reports success but persists only a prefix of
	// the (different) new image, leaving a front/back mix on disk.
	for i := range page {
		page[i] = byte(255 - i%256)
	}
	if err := fs.WritePage(id, &page); err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	var got [PageSize]byte
	if err := fs.ReadPage(id, &got); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read after torn write = %v, want ErrCorruptPage", err)
	}
	if fi.InjectedFaults() != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", fi.InjectedFaults())
	}
}

func TestBitFlipCaughtByChecksum(t *testing.T) {
	preadPath(t, testBitFlipCaughtByChecksum)
}

func testBitFlipCaughtByChecksum(t *testing.T) {
	fi := NewScriptedInjector(FaultRule{Op: OpPageWrite, Seq: 1, Kind: FaultBitFlip})
	fs := openTestStore(t, fi)
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	copy(page[:], "will be flipped")
	if err := fs.WritePage(id, &page); err != nil {
		t.Fatalf("bit-flip write must report success, got %v", err)
	}
	var got [PageSize]byte
	if err := fs.ReadPage(id, &got); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read after bit flip = %v, want ErrCorruptPage", err)
	}
}

func TestVerifyPageScrubPrimitive(t *testing.T) {
	preadPath(t, testVerifyPageScrubPrimitive)
}

func testVerifyPageScrubPrimitive(t *testing.T) {
	fs := openTestStore(t, nil)
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	copy(page[:], "scrub me")
	if err := fs.WritePage(id, &page); err != nil {
		t.Fatal(err)
	}
	if err := fs.VerifyPage(id); err != nil {
		t.Fatalf("verify of clean page: %v", err)
	}
	// A freed page is skipped, not reported.
	id2, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(id2); err != nil {
		t.Fatal(err)
	}
	if err := fs.VerifyPage(id2); err != nil {
		t.Fatalf("verify of freed page = %v, want nil", err)
	}
	// Corruption is found without a client read, and quarantines.
	flipByte(t, fs.Path(), int64(id)*slotSize+7)
	if err := fs.VerifyPage(id); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("verify of corrupted page = %v, want ErrCorruptPage", err)
	}
	if fs.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", fs.Quarantined())
	}
	live := fs.LivePages()
	if len(live) != 1 || live[0] != id {
		t.Fatalf("LivePages = %v, want [%d]", live, id)
	}
}

func TestTransientFaultsRetriedByPolicy(t *testing.T) {
	// One transient EIO on the only read attempt sequence; the retry (a
	// fresh attempt, fresh seq) succeeds.
	fi := NewScriptedInjector(FaultRule{Op: OpPageRead, Seq: 1, Kind: FaultTransientEIO})
	fs := openTestStore(t, fi)
	pool := NewBufferPool(fs, 4)
	pool.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
	id, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Write(id, func(d []byte) { copy(d, "retried") }); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Drop the frame so the next Read is a physical read.
	pool.stripeFor(id).mu.Lock()
	delete(pool.stripeFor(id).frames, id)
	pool.stripeFor(id).mu.Unlock()

	var got []byte
	if err := pool.Read(id, func(d []byte) { got = append(got, d[:7]...) }); err != nil {
		t.Fatalf("read with transient fault = %v, want retried success", err)
	}
	if string(got) != "retried" {
		t.Fatalf("got %q", got)
	}
	if pool.Retries() < 1 {
		t.Fatalf("Retries = %d, want >= 1", pool.Retries())
	}
}

func TestRetryPolicyExhaustionIsNotTransient(t *testing.T) {
	calls := 0
	var retries atomic.Int64
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	err := p.Do(&retries, func() error {
		calls++
		return &FaultError{Op: OpPageRead, Page: 7, Kind: FaultTransientEIO}
	})
	if calls != 3 {
		t.Fatalf("attempts = %d, want 3", calls)
	}
	if retries.Load() != 2 {
		t.Fatalf("retries = %d, want 2", retries.Load())
	}
	if err == nil || IsTransient(err) {
		t.Fatalf("exhausted error %v must be non-transient", err)
	}
	// The inner fault is still reachable for classification.
	if !IsMediaFault(err) {
		t.Fatalf("exhausted error %v must stay a media fault", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("exhausted error %v must unwrap to EIO", err)
	}
}

func TestRetryPolicyPermanentFailsImmediately(t *testing.T) {
	calls := 0
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	err := p.Do(nil, func() error {
		calls++
		return &FaultError{Op: OpPageWrite, Page: 3, Kind: FaultPermanentEIO}
	})
	if calls != 1 {
		t.Fatalf("attempts = %d, want 1 (permanent faults are not retried)", calls)
	}
	if IsTransient(err) {
		t.Fatal("permanent fault classified transient")
	}
}

func TestPermanentFaultLatchesPage(t *testing.T) {
	fi := NewScriptedInjector(FaultRule{Op: OpPageRead, Seq: 1, Kind: FaultPermanentEIO})
	fs := openTestStore(t, fi)
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	if err := fs.WritePage(id, &page); err != nil {
		t.Fatal(err)
	}
	var got [PageSize]byte
	if err := fs.ReadPage(id, &got); !IsMediaFault(err) || IsTransient(err) {
		t.Fatalf("first read = %v, want permanent media fault", err)
	}
	// Every later attempt fails too, even though the rule only fired once.
	for i := 0; i < 3; i++ {
		if err := fs.ReadPage(id, &got); err == nil {
			t.Fatal("latched page readable")
		}
	}
}

func TestSeededFaultsAreReproducible(t *testing.T) {
	rates := FaultRates{TransientEIO: 0.3, TornWrite: 0.2, SyncFail: 0.5}
	a := SeededFaults(42, rates)
	b := SeededFaults(42, rates)
	for i := int64(1); i <= 200; i++ {
		op := FaultOp(i % int64(nFaultOps))
		da := a.Decide(op, i, PageID(i))
		db := b.Decide(op, i, PageID(i))
		if da != db {
			t.Fatalf("seeded schedules diverge at %d: %v vs %v", i, da, db)
		}
	}
}

func TestScriptedRuleCountBounds(t *testing.T) {
	s := Script(FaultRule{Op: OpWALSync, Kind: FaultSyncFail, Count: 2})
	fired := 0
	for i := int64(1); i <= 5; i++ {
		if s.Decide(OpWALSync, i, NilPage).Kind == FaultSyncFail {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("rule fired %d times, want 2 (Count bound)", fired)
	}
}

func TestScriptedInjectorSyncFaults(t *testing.T) {
	fi := NewScriptedInjector(FaultRule{Op: OpPageSync, Seq: 1, Kind: FaultSyncFail})
	fs := openTestStore(t, fi)
	if err := fs.Sync(); !IsTransient(err) {
		t.Fatalf("first sync = %v, want transient fault", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("second sync = %v, want nil", err)
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{os.ErrClosed, false},
		{ErrInjectedCrash, false},
		{ErrCorruptPage, false},
		{&FaultError{Op: OpPageRead, Kind: FaultTransientEIO}, true},
		{&FaultError{Op: OpWALSync, Kind: FaultSyncFail}, true},
		{&FaultError{Op: OpPageWrite, Kind: FaultPermanentEIO}, false},
		{&retriesExhausted{err: &FaultError{Kind: FaultTransientEIO}}, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if !IsMediaFault(&CorruptPageError{Path: "x", ID: 1}) {
		t.Error("CorruptPageError not a media fault")
	}
	if IsMediaFault(os.ErrClosed) {
		t.Error("os.ErrClosed classified as media fault")
	}
}
