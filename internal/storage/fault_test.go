package storage

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
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
	if err := fs.ReadPage(id, &got); !IsMediaFault(err) {
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
	rates := FaultRates{PermanentEIO: 0.3, TornWrite: 0.2, SyncFail: 0.5}
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
	var fe *FaultError
	if err := fs.Sync(); !errors.As(err, &fe) || fe.Kind != FaultSyncFail {
		t.Fatalf("first sync = %v, want the injected sync-fail", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("second sync = %v, want nil", err)
	}
}

func TestIsMediaFaultClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{os.ErrClosed, false},
		{ErrInjectedCrash, false},
		{ErrCorruptPage, true},
		{&CorruptPageError{Path: "x", ID: 1}, true},
		{&FaultError{Op: OpWALSync, Kind: FaultSyncFail}, true},
		{&FaultError{Op: OpPageWrite, Kind: FaultPermanentEIO}, true},
		{syscall.EIO, true},
	}
	for _, c := range cases {
		if got := IsMediaFault(c.err); got != c.want {
			t.Errorf("IsMediaFault(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
