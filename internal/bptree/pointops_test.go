package bptree

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// newHeight3Tree builds a height-3 tree of n evenly spaced keys (K = 10*i,
// ID 1) over a pool large enough that every page stays cached, and returns
// it with its disk, so tests can count pool accesses and page allocations.
func newHeight3Tree(tb testing.TB, n, poolPages int) (*Tree, *storage.BufferPool, *storage.MemStore) {
	tb.Helper()
	disk := storage.NewDisk()
	pool := storage.NewBufferPool(disk, poolPages)
	tr, err := New(pool)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(mkEntry(uint64(i)*10, 1)); err != nil {
			tb.Fatal(err)
		}
	}
	if tr.Height() != 3 {
		tb.Fatalf("height %d, want 3", tr.Height())
	}
	return tr, pool, disk
}

// leafCount returns how many entries the leaf owning k holds.
func leafCount(t *testing.T, tr *Tree, k Key) int {
	t.Helper()
	id, err := tr.leafFor(k)
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr.readNode(id)
	if err != nil {
		t.Fatal(err)
	}
	return len(n.entries)
}

// TestPointOpPageAccesses pins the page budget documented on Insert, Delete
// and Get: height buffer-pool accesses for an operation that changes no
// structure, and fixed ceilings for one that splits or rebalances — none
// above what a tree that decodes every node on the path pays (the second
// number on each constant).
func TestPointOpPageAccesses(t *testing.T) {
	const (
		height     = 3
		leafSplit  = 6  // descent 3 + two leaf halves + parent; 6
		leafMerge  = 8  // descent 3 + parent decode + two siblings + two writes; 11
		leafBorrow = 9  // one more write than a merge; 12
		cascade    = 14 // leaf merge + the same again at the root, merging (13) or rotating (14); 15 and 16
	)
	tr, pool, disk := newHeight3Tree(t, 12000, 2000)
	accesses := func(op func()) (pages int64, allocated int) {
		before, pagesBefore := pool.Stats(), disk.NumPages()
		op()
		after := pool.Stats()
		return after.Hits + after.Misses - before.Hits - before.Misses, disk.NumPages() - pagesBefore
	}

	for i := 0; i < 12000; i += 7 {
		k := Key{K: uint64(i) * 10, ID: 1}
		if n, _ := accesses(func() {
			if _, ok, err := tr.Get(k); err != nil || !ok {
				t.Fatalf("Get(%v): %v %v", k, ok, err)
			}
		}); n != height {
			t.Fatalf("Get(%v) made %d page accesses, want %d", k, n, height)
		}
	}

	// Two inserts between every pair of existing keys: the ascending build
	// left every leaf half full, so this fills and splits each of them.
	plain, splits := 0, 0
	for i := 0; i < 24000; i++ {
		e := mkEntry(uint64(i/2)*10+3+uint64(i%2)*3, 2)
		full := leafCount(t, tr, e.Key) == LeafCap
		n, grew := accesses(func() {
			if err := tr.Insert(e); err != nil {
				t.Fatal(err)
			}
		})
		switch {
		case !full:
			plain++
			if n != height || grew != 0 {
				t.Fatalf("non-splitting Insert(%v): %d accesses, %d new pages; want %d and 0", e.Key, n, grew, height)
			}
		case grew == 1: // the leaf alone split
			splits++
			if n > leafSplit {
				t.Fatalf("leaf-splitting Insert(%v): %d accesses, budget %d", e.Key, n, leafSplit)
			}
		}
	}
	if plain == 0 || splits == 0 {
		t.Fatalf("inserts covered %d plain and %d splitting cases; want both", plain, splits)
	}

	// Deletes, enough of them that leaves underflow, borrow and merge.
	plain, merges, borrows, cascaded := 0, 0, 0, 0
	for i := 0; i < 12000; i++ {
		if i%8 == 0 {
			continue
		}
		k := Key{K: uint64(i) * 10, ID: 1}
		underflows := leafCount(t, tr, k) == leafMin
		parent, _, err := tr.childFor(tr.root, k)
		if err != nil {
			t.Fatal(err)
		}
		pn, err := tr.readNode(parent)
		if err != nil {
			t.Fatal(err)
		}
		cascades := len(pn.keys) == internalMin // a leaf merge under it leaves it underfull
		n, grew := accesses(func() {
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
		})
		switch {
		case !underflows:
			plain++
			if n != height || grew != 0 {
				t.Fatalf("non-underflowing Delete(%v): %d accesses, %d pages; want %d and 0", k, n, grew, height)
			}
		case grew == 0:
			borrows++
			if n > leafBorrow {
				t.Fatalf("borrowing Delete(%v): %d accesses, budget %d", k, n, leafBorrow)
			}
		case !cascades:
			merges++
			if n > leafMerge || grew != -1 {
				t.Fatalf("merging Delete(%v): %d accesses, %d pages; budget %d", k, n, grew, leafMerge)
			}
		default:
			cascaded++
			if n > cascade {
				t.Fatalf("cascading Delete(%v): %d accesses, budget %d", k, n, cascade)
			}
		}
	}
	if plain == 0 || merges == 0 || borrows == 0 || cascaded == 0 {
		t.Fatalf("deletes covered %d plain, %d merging, %d borrowing, %d cascading cases; want all four", plain, merges, borrows, cascaded)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPointOpsDoNotAllocate: a cached Delete+Insert pair that changes no
// structure — the steady state of a Bx update — allocates nothing.
func TestPointOpsDoNotAllocate(t *testing.T) {
	tr, _, _ := newHeight3Tree(t, 12000, 2000)
	e := mkEntry(60000, 1)
	for id := model.ObjectID(2); id < 10; id++ { // off the half-full boundary the ascending build leaves
		if err := tr.Insert(mkEntry(e.Key.K, id)); err != nil {
			t.Fatal(err)
		}
	}
	if c := leafCount(t, tr, e.Key); c <= leafMin || c >= LeafCap {
		t.Fatalf("leaf holds %d entries; the pair would rebalance", c)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tr.Delete(e.Key); err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tr.Get(e.Key); err != nil || !ok {
			t.Fatal(ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Delete+Insert+Get allocated %.1f times per run, want 0", allocs)
	}
}

// TestCorruptPageIsAnError scribbles an impossible count, then an unknown
// tag, onto a live leaf and a live internal page and runs every reader over
// them: each must report storage.ErrCorruptPage, none may index past the
// page.
func TestCorruptPageIsAnError(t *testing.T) {
	scribbles := map[string]func(data []byte){
		"count": func(data []byte) { binary.LittleEndian.PutUint16(data[1:3], 0xFFFF) },
		"tag":   func(data []byte) { data[0] = 0x7F },
		"swap": func(data []byte) { // a well-formed page of the wrong kind for its level
			if data[0] == tagInternal {
				data[0] = tagLeaf
				binary.LittleEndian.PutUint16(data[1:3], 1)
			} else {
				data[0] = tagInternal
			}
		},
	}
	for name, scribble := range scribbles {
		for _, level := range []string{"leaf", "internal"} {
			t.Run(name+"/"+level, func(t *testing.T) {
				tr, pool, _ := newHeight3Tree(t, 12000, 2000)
				k := Key{K: 60000, ID: 1}
				page := tr.root
				if level == "leaf" {
					var err error
					if page, err = tr.leafFor(k); err != nil {
						t.Fatal(err)
					}
				}
				if err := pool.Write(page, scribble); err != nil {
					t.Fatal(err)
				}
				visit := func(Entry) bool { return true }
				_, _, getErr := tr.Get(k)
				for op, err := range map[string]error{
					"Get":      getErr,
					"Insert":   tr.Insert(mkEntry(k.K+1, 1)),
					"Delete":   tr.Delete(k),
					"Scan":     tr.Scan(k.K, k.K+100, visit),
					"ScanMany": tr.ScanMany([]ScanRange{{Lo: k.K, Hi: k.K + 100}}, visit),
				} {
					if !errors.Is(err, storage.ErrCorruptPage) {
						t.Errorf("%s over a scribbled %s page: err = %v, want one wrapping storage.ErrCorruptPage", op, level, err)
					}
				}
			})
		}
	}
}

// BenchmarkPointOps measures the kernel without the Store: one Delete+Insert
// of a resident key (a Bx update) per iteration plus, separately, Get, with
// every page cached and with the pool a tenth of the tree.
func BenchmarkPointOps(b *testing.B) {
	const n = 100000
	for _, bc := range []struct {
		name  string
		pages int
	}{{"cached", 4000}, {"cache=10%", 230}} {
		tr, _, _ := newHeight3Tree(b, n, bc.pages)
		// A multiplicative walk over the keys, so consecutive operations share
		// no leaf, as reports from independent objects do not.
		key := func(i int) uint64 { return uint64(i*7919%n) * 10 }
		b.Run("update/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := mkEntry(key(i), 1)
				if err := tr.Delete(e.Key); err != nil {
					b.Fatal(err)
				}
				if err := tr.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("get/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok, err := tr.Get(Key{K: key(i), ID: model.ObjectID(1)}); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}
