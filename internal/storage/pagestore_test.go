package storage

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flipByte inverts one byte of a file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// withBackends runs a subtest against each PageStore implementation, so the
// interface contract (allocation, validation errors, free-list ID reuse) is
// asserted once for all of them.
func withBackends(t *testing.T, fn func(t *testing.T, ps PageStore)) {
	t.Helper()
	t.Run("MemStore", func(t *testing.T) {
		fn(t, NewMemStore())
	})
	t.Run("FileStore", func(t *testing.T) {
		fs, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.dat"), FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		fn(t, fs)
	})
}

// preadPath runs a FileStore-specific test as the "pread" subtest, named
// for the FileStore's read path, so its results keep one stable name.
func preadPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("pread", fn)
}

func TestPageStoreContract(t *testing.T) {
	withBackends(t, func(t *testing.T, ps PageStore) {
		a, err := ps.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		b, err := ps.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if a == NilPage || b == NilPage || a == b {
			t.Fatalf("bad ids %d, %d", a, b)
		}
		if ps.NumPages() != 2 {
			t.Fatalf("NumPages = %d, want 2", ps.NumPages())
		}
		var page [PageSize]byte
		page[0], page[PageSize-1] = 0xAB, 0xCD
		if err := ps.WritePage(a, &page); err != nil {
			t.Fatal(err)
		}
		var got [PageSize]byte
		if err := ps.ReadPage(a, &got); err != nil {
			t.Fatal(err)
		}
		if got != page {
			t.Fatal("read back different bytes")
		}
		// Validation: unallocated, freed, and double-freed pages error.
		if err := ps.ReadPage(a+100, &got); err == nil {
			t.Fatal("read of unallocated page succeeded")
		}
		if err := ps.Free(a); err != nil {
			t.Fatal(err)
		}
		if err := ps.Free(a); err == nil {
			t.Fatal("double free succeeded")
		}
		if err := ps.ReadPage(a, &got); err == nil {
			t.Fatal("read of freed page succeeded")
		}
		if err := ps.WritePage(a, &page); err == nil {
			t.Fatal("write of freed page succeeded")
		}
		if ps.NumPages() != 1 {
			t.Fatalf("NumPages = %d after a free, want 1", ps.NumPages())
		}
		if err := ps.Sync(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPageStoreFreeListReuse(t *testing.T) {
	withBackends(t, func(t *testing.T, ps PageStore) {
		ids := make([]PageID, 6)
		for i := range ids {
			id, err := ps.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		// Free three pages; both backends recycle most-recently-freed first.
		freed := []PageID{ids[1], ids[3], ids[4]}
		for _, id := range freed {
			var junk [PageSize]byte
			for i := range junk {
				junk[i] = 0xEE
			}
			if err := ps.WritePage(id, &junk); err != nil {
				t.Fatal(err)
			}
			if err := ps.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		high := ps.NumPages()
		for i := len(freed) - 1; i >= 0; i-- {
			id, err := ps.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id != freed[i] {
				t.Fatalf("allocation %d recycled page %d, want %d (LIFO reuse)", len(freed)-1-i, id, freed[i])
			}
			// Recycled pages come back zeroed, not with their stale image.
			var got [PageSize]byte
			if err := ps.ReadPage(id, &got); err != nil {
				t.Fatal(err)
			}
			if got != ([PageSize]byte{}) {
				t.Fatalf("recycled page %d not zeroed", id)
			}
		}
		if ps.NumPages() != high+len(freed) {
			t.Fatalf("NumPages = %d, want %d", ps.NumPages(), high+len(freed))
		}
		// The free list exhausted: the next allocation must be a fresh id.
		id, err := ps.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for _, old := range ids {
			if id == old {
				t.Fatalf("fresh allocation reused live id %d", id)
			}
		}
	})
}

func TestPageStoreErrorPaths(t *testing.T) {
	withBackends(t, func(t *testing.T, ps PageStore) {
		id, err := ps.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		var page [PageSize]byte

		// NilPage and out-of-range ids are rejected by every verb.
		if err := ps.ReadPage(NilPage, &page); err == nil {
			t.Fatal("read of nil page succeeded")
		}
		if err := ps.WritePage(NilPage, &page); err == nil {
			t.Fatal("write of nil page succeeded")
		}
		if err := ps.Free(NilPage); err == nil {
			t.Fatal("free of nil page succeeded")
		}
		if err := ps.ReadPage(id+1000, &page); err == nil {
			t.Fatal("read of out-of-range page succeeded")
		}
		if err := ps.WritePage(id+1000, &page); err == nil {
			t.Fatal("write of out-of-range page succeeded")
		}
		if err := ps.Free(id + 1000); err == nil {
			t.Fatal("free of out-of-range page succeeded")
		}

		// Already-free ids are rejected by every verb.
		if err := ps.Free(id); err != nil {
			t.Fatal(err)
		}
		if err := ps.ReadPage(id, &page); err == nil {
			t.Fatal("read of freed page succeeded")
		}
		if err := ps.WritePage(id, &page); err == nil {
			t.Fatal("write of freed page succeeded")
		}
		if err := ps.Free(id); err == nil {
			t.Fatal("double free succeeded")
		}
	})
}

func TestPageStoreAfterClose(t *testing.T) {
	withBackends(t, func(t *testing.T, ps PageStore) {
		id, err := ps.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
		// Second close is idempotent.
		if err := ps.Close(); err != nil {
			t.Fatalf("second Close = %v, want nil", err)
		}
		var page [PageSize]byte
		if _, err := ps.Allocate(); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("Allocate after Close = %v, want os.ErrClosed", err)
		}
		if err := ps.ReadPage(id, &page); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("ReadPage after Close = %v, want os.ErrClosed", err)
		}
		if err := ps.WritePage(id, &page); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("WritePage after Close = %v, want os.ErrClosed", err)
		}
		if err := ps.Free(id); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("Free after Close = %v, want os.ErrClosed", err)
		}
		if err := ps.Sync(); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("Sync after Close = %v, want os.ErrClosed", err)
		}
	})
}

func TestFileStoreTruncateDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	fs, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path, FileStoreOptions{Truncate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if got := fs2.NumPages(); got != 0 {
		t.Fatalf("NumPages after truncating open = %d, want 0", got)
	}
}

// TestOpenFileStoreRefusesExistingFile pins the scratch-file contract: a page
// file is never reopened. Without Truncate an existing non-empty file is an
// error (nothing is silently discarded, nothing is read back); with it the
// store starts from zero pages.
func TestOpenFileStoreRefusesExistingFile(t *testing.T) {
	preadPath(t, testOpenFileStoreRefusesExistingFile)
}

func testOpenFileStoreRefusesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	fs, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	copy(page[:], "left behind by a previous process")
	if err := fs.WritePage(id, &page); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, FileStoreOptions{}); err == nil || !strings.Contains(err.Error(), "not reopened") {
		t.Fatalf("open over an existing page file = %v, want a refusal", err)
	}
	fs2, err := OpenFileStore(path, FileStoreOptions{Truncate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if got := fs2.NumPages(); got != 0 {
		t.Fatalf("%d pages after a truncating open, want 0", got)
	}
	if err := fs2.ReadPage(id, &page); err == nil {
		t.Fatal("a previous process's page is readable after a truncating open")
	}
	// The first page of the new lifetime reuses the id and reads zero.
	id2, err := fs2.Allocate()
	if err != nil || id2 != id {
		t.Fatalf("first Allocate = %d, %v; want %d", id2, err, id)
	}
	if err := fs2.ReadPage(id2, &page); err != nil || page != ([PageSize]byte{}) {
		t.Fatalf("fresh page not zero (err %v)", err)
	}
}

func TestFaultInjectorKillsAtNthSync(t *testing.T) {
	fi := NewFaultInjector(2)
	path := filepath.Join(t.TempDir(), "pages.dat")
	fs, err := OpenFileStore(path, FileStoreOptions{Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("first sync should survive: %v", err)
	}
	if err := fs.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("second sync error = %v, want ErrInjectedCrash", err)
	}
	// Post-kill, every write-side operation is refused.
	if _, err := fs.Allocate(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("post-crash Allocate error = %v", err)
	}
	var page [PageSize]byte
	if err := fs.WritePage(1, &page); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("post-crash WritePage error = %v", err)
	}
	// A nil injector is inert.
	var nilFI *FaultInjector
	if err := nilFI.BeforeWrite(); err != nil {
		t.Fatal(err)
	}
	if err := nilFI.BeforeSync(); err != nil {
		t.Fatal(err)
	}
}
