package bptree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

func newTestTree(t *testing.T, bufferPages int) *Tree {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), bufferPages)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mkEntry(k uint64, id model.ObjectID) Entry {
	return Entry{
		Key: Key{K: k, ID: id},
		Pos: geom.V(float64(k), float64(id)),
		Vel: geom.V(1, -1),
		T:   42,
	}
}

func TestKeyLess(t *testing.T) {
	cases := []struct {
		a, b Key
		want bool
	}{
		{Key{1, 1}, Key{2, 0}, true},
		{Key{2, 0}, Key{1, 9}, false},
		{Key{1, 1}, Key{1, 2}, true},
		{Key{1, 2}, Key{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Fatalf("%v < %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr := newTestTree(t, 50)
	e := mkEntry(10, 7)
	if err := tr.Insert(e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tr.Get(e.Key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if got != e {
		t.Fatalf("got %+v, want %+v", got, e)
	}
	if _, ok, _ := tr.Get(Key{10, 8}); ok {
		t.Fatal("found absent key")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestDuplicateInsertRejected: a rejected insert is typed (errors.Is
// model.ErrDuplicate, the counterpart of Delete's model.ErrNotFound) and
// leaves the tree exactly as it was, full leaves included.
func TestDuplicateInsertRejected(t *testing.T) {
	tr := newTestTree(t, 50)
	for k := uint64(0); k < LeafCap; k++ { // exactly one full root leaf
		if err := tr.Insert(mkEntry(k, 5)); err != nil {
			t.Fatal(err)
		}
	}
	before := scanAll(t, tr)
	dup := mkEntry(7, 5)
	dup.T = -1 // a different payload under the same composite key must not land
	err := tr.Insert(dup)
	if !errors.Is(err, model.ErrDuplicate) {
		t.Fatalf("duplicate insert: err = %v, want one wrapping model.ErrDuplicate", err)
	}
	if tr.Len() != LeafCap || tr.Height() != 1 {
		t.Fatalf("after rejected insert: Len %d Height %d, want %d and 1", tr.Len(), tr.Height(), LeafCap)
	}
	if after := scanAll(t, tr); !slices.Equal(before, after) {
		t.Fatal("rejected insert changed the leaf contents")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func scanAll(t *testing.T, tr *Tree) []Entry {
	t.Helper()
	var out []Entry
	if err := tr.Scan(0, ^uint64(0), func(e Entry) bool {
		out = append(out, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSameKeyDifferentIDs(t *testing.T) {
	tr := newTestTree(t, 50)
	for id := model.ObjectID(0); id < 200; id++ {
		if err := tr.Insert(mkEntry(77, id)); err != nil {
			t.Fatal(err)
		}
	}
	var got []model.ObjectID
	if err := tr.Scan(77, 78, func(e Entry) bool {
		got = append(got, e.Key.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("scan found %d, want 200", len(got))
	}
	for i, id := range got {
		if id != model.ObjectID(i) {
			t.Fatalf("ids out of order at %d: %d", i, id)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkInsertScanDelete(t *testing.T) {
	tr := newTestTree(t, 50)
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{K: uint64(rng.Intn(2000)), ID: model.ObjectID(i)}
		if err := tr.Insert(Entry{Key: keys[i], T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatal("tree should have split")
	}
	// Full scan returns everything sorted.
	var scanned []Key
	if err := tr.Scan(0, ^uint64(0), func(e Entry) bool {
		scanned = append(scanned, e.Key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != n {
		t.Fatalf("scan found %d, want %d", len(scanned), n)
	}
	if !sort.SliceIsSorted(scanned, func(a, b int) bool { return scanned[a].Less(scanned[b]) }) {
		t.Fatal("scan out of order")
	}
	// Delete everything in random order.
	perm := rng.Perm(n)
	for step, p := range perm {
		if err := tr.Delete(keys[p]); err != nil {
			t.Fatalf("delete %v (step %d): %v", keys[p], step, err)
		}
		if step%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", step+1, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after full delete", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d after full delete, want 1", tr.Height())
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := newTestTree(t, 50)
	if err := tr.Delete(Key{1, 1}); err != model.ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := tr.Insert(mkEntry(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(Key{1, 2}); err != model.ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestScanRange(t *testing.T) {
	tr := newTestTree(t, 50)
	for k := uint64(0); k < 1000; k += 2 { // even keys only
		if err := tr.Insert(Entry{Key: Key{K: k, ID: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	if err := tr.Scan(100, 200, func(e Entry) bool {
		got = append(got, e.Key.K)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("scan [100,200) found %d, want 50", len(got))
	}
	if got[0] != 100 || got[len(got)-1] != 198 {
		t.Fatalf("range bounds wrong: %d..%d", got[0], got[len(got)-1])
	}
	// Early termination.
	count := 0
	if err := tr.Scan(0, ^uint64(0), func(Entry) bool {
		count++
		return count < 10
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
	// Empty range.
	if err := tr.Scan(200, 200, func(Entry) bool { t.Fatal("visited"); return true }); err != nil {
		t.Fatal(err)
	}
}

// TestModelEquivalence drives the tree and a sorted-map model with the same
// random operation stream and checks full agreement (property-based model
// test), with the pool both smaller than a root-to-leaf path's working set
// and comfortably larger. A second phase grows the tree to height 3 and
// drains it to empty, so the root collapses through both levels.
func TestModelEquivalence(t *testing.T) {
	for _, pages := range []int{3, 30} {
		t.Run(fmt.Sprintf("pool=%d", pages), func(t *testing.T) { testModelEquivalence(t, pages) })
	}
}

func testModelEquivalence(t *testing.T, pages int) {
	tr := newTestTree(t, pages)
	oracle := make(map[Key]Entry)
	rng := rand.New(rand.NewSource(99))

	step := 0
	insert := func(k Key) {
		e := Entry{Key: k, Pos: geom.V(rng.Float64(), rng.Float64()), T: float64(step)}
		_, exists := oracle[k]
		err := tr.Insert(e)
		if exists != errors.Is(err, model.ErrDuplicate) || (!exists && err != nil) {
			t.Fatalf("step %d: insert of %v: exists=%v err=%v", step, k, exists, err)
		}
		if !exists {
			oracle[k] = e
		}
	}
	remove := func(k Key) {
		_, exists := oracle[k]
		err := tr.Delete(k)
		if exists != (err == nil) || (!exists && err != model.ErrNotFound) {
			t.Fatalf("step %d: delete of %v: exists=%v err=%v", step, k, exists, err)
		}
		delete(oracle, k)
	}
	check := func() {
		t.Helper()
		if tr.Len() != len(oracle) {
			t.Fatalf("step %d: len %d vs oracle %d", step, tr.Len(), len(oracle))
		}
		if step%500 != 0 {
			return
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	compare := func() {
		t.Helper()
		fromTree := scanAll(t, tr)
		if len(fromTree) != len(oracle) {
			t.Fatalf("scan %d vs oracle %d", len(fromTree), len(oracle))
		}
		for _, e := range fromTree {
			if want, ok := oracle[e.Key]; !ok || want != e {
				t.Fatalf("tree has %+v, oracle %+v (present=%v)", e, want, ok)
			}
			if got, ok, err := tr.Get(e.Key); err != nil || !ok || got != e {
				t.Fatalf("Get(%v) = %+v, %v, %v; scan saw %+v", e.Key, got, ok, err, e)
			}
		}
	}

	// Phase 1: mixed churn over a small key space (many duplicates and misses).
	for ; step < 20000; step++ {
		k := Key{K: uint64(rng.Intn(300)), ID: model.ObjectID(rng.Intn(50))}
		if rng.Intn(3) < 2 {
			insert(k)
		} else {
			remove(k)
		}
		check()
	}
	compare()

	// Phase 2: grow to height 3, then drain to empty in random order.
	for tr.Height() < 3 {
		insert(Key{K: uint64(rng.Intn(1 << 20)), ID: model.ObjectID(rng.Intn(4))})
		step++
		check()
	}
	compare()
	keys := make([]Key, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) }) // map order is not seeded
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	for _, k := range keys {
		remove(k)
		step++
		check()
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("after drain: Len %d Height %d, want 0 and 1", tr.Len(), tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEntryRoundTripThroughPages(t *testing.T) {
	// Force evictions with a tiny buffer so entries round-trip through the
	// simulated disk encoding.
	tr := newTestTree(t, 3)
	entries := make([]Entry, 500)
	for i := range entries {
		entries[i] = Entry{
			Key: Key{K: uint64(i * 3), ID: model.ObjectID(i)},
			Pos: geom.V(float64(i)*1.5, -float64(i)),
			Vel: geom.V(float64(i%7)-3, float64(i%5)-2),
			T:   float64(i) / 3,
		}
		if err := tr.Insert(entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range entries {
		got, ok, err := tr.Get(want.Key)
		if err != nil || !ok {
			t.Fatalf("Get %v: ok=%v err=%v", want.Key, ok, err)
		}
		if got != want {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
		}
	}
}

func TestIOAccountedThroughPool(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemStore(), 5)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(Entry{Key: Key{K: uint64(i), ID: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	before := pool.Stats()
	if err := tr.Scan(0, 100, func(Entry) bool { return true }); err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if after.Misses == before.Misses && after.Hits == before.Hits {
		t.Fatal("scan touched no pages?")
	}
}

func TestObjectConversion(t *testing.T) {
	e := mkEntry(9, 4)
	o := e.Object()
	if o.ID != 4 || o.Pos != e.Pos || o.Vel != e.Vel || o.T != e.T {
		t.Fatalf("Object() = %+v", o)
	}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Get returns the entry with the exact composite key, in height page
// accesses, decoding only the entry it returns.
func (t *Tree) Get(k Key) (e Entry, found bool, err error) {
	id, err := t.leafFor(k)
	if err != nil {
		return Entry{}, false, err
	}
	perr := t.pool.Read(id, func(data []byte) {
		count, ok := pageCount(data, tagLeaf, LeafCap)
		if !ok {
			err = errCorrupt(id)
			return
		}
		var i int
		if i, found = leafSearch(data, count, k); found {
			e = decodeEntry(data[leafHeader+i*entrySize:])
		}
	})
	if perr != nil {
		return Entry{}, false, perr
	}
	return e, found, err
}
