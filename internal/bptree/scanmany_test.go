package bptree

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// buildTree inserts n entries with keys drawn from [0, keySpace) and
// returns the tree plus the sorted entry list.
func buildTree(t *testing.T, rng *rand.Rand, n int, keySpace uint64) *Tree {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), 64)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := Entry{
			Key: Key{K: rng.Uint64() % keySpace, ID: model.ObjectID(i + 1)},
			Pos: geom.V(rng.Float64()*1000, rng.Float64()*1000),
			Vel: geom.V(rng.Float64()*10-5, rng.Float64()*10-5),
			T:   rng.Float64() * 100,
		}
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// unionRanges normalizes a Lo-sorted range list into its merged union: the
// key space ScanMany must cover exactly once.
func unionRanges(ranges []ScanRange) []ScanRange {
	var out []ScanRange
	for _, r := range ranges {
		if r.Hi <= r.Lo {
			continue
		}
		if len(out) > 0 && r.Lo <= out[len(out)-1].Hi {
			if r.Hi > out[len(out)-1].Hi {
				out[len(out)-1].Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// oracleScan answers what ScanMany must produce: the tree's entries, read
// by one walk of the whole leaf chain, that fall in a merged range, up to an
// optional early-stop budget across the whole batch.
func oracleScan(t *testing.T, tr *Tree, ranges []ScanRange, limit int) []Entry {
	t.Helper()
	union := unionRanges(ranges)
	var out []Entry
	for _, e := range scanAll(t, tr) {
		if limit >= 0 && len(out) >= limit {
			break
		}
		if slices.ContainsFunc(union, func(r ScanRange) bool { return r.Lo <= e.Key.K && e.Key.K < r.Hi }) {
			out = append(out, e)
		}
	}
	return out
}

func runScanMany(t *testing.T, tr *Tree, ranges []ScanRange, limit int) []Entry {
	t.Helper()
	var out []Entry
	err := tr.ScanMany(ranges, func(e Entry) bool {
		if limit >= 0 && len(out) >= limit {
			return false
		}
		out = append(out, e)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func entriesEqual(a, b []Entry) bool {
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

// randomRanges draws a Lo-sorted batch that deliberately includes empty,
// adjacent, overlapping, duplicate and past-the-end intervals.
func randomRanges(rng *rand.Rand, keySpace uint64) []ScanRange {
	n := rng.Intn(24)
	out := make([]ScanRange, 0, n)
	for i := 0; i < n; i++ {
		lo := rng.Uint64() % (keySpace + keySpace/4) // sometimes past max key
		var hi uint64
		switch rng.Intn(5) {
		case 0:
			hi = lo // empty
		case 1:
			hi = lo + 1 + rng.Uint64()%4 // tiny
		case 2:
			hi = lo + 1 + rng.Uint64()%(keySpace/8+1) // wide
		case 3:
			hi = lo + 1 + rng.Uint64()%64
		default:
			if lo > 8 {
				lo -= 8 // encourage overlap with the previous range
			}
			hi = lo + 1 + rng.Uint64()%128
		}
		out = append(out, ScanRange{Lo: lo, Hi: hi})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	// Occasionally make consecutive ranges exactly adjacent; the shift can
	// leapfrog a later Lo, so restore the sort afterwards.
	for i := 1; i < len(out); i++ {
		if rng.Intn(6) == 0 {
			out[i].Lo = out[i-1].Hi
			if out[i].Hi < out[i].Lo {
				out[i].Hi = out[i].Lo + rng.Uint64()%32
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// TestScanManyDifferential fuzzes ScanMany against a filtered walk of the
// whole leaf chain across tree sizes (empty through multi-level) and adversarial range batches.
func TestScanManyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const keySpace = 1 << 14
	// 16000 entries forces height 3 (> InternalCap * leafMin), so re-seeks
	// exercise a multi-level path stack, not just the root.
	for _, n := range []int{0, 1, 5, LeafCap, LeafCap + 1, 500, 4000, 16000} {
		tr := buildTree(t, rng, n, keySpace)
		for trial := 0; trial < 60; trial++ {
			ranges := randomRanges(rng, keySpace)
			got := runScanMany(t, tr, ranges, -1)
			want := oracleScan(t, tr, ranges, -1)
			if !entriesEqual(got, want) {
				t.Fatalf("n=%d trial=%d ranges=%v: ScanMany %d entries != oracle %d entries",
					n, trial, ranges, len(got), len(want))
			}
		}
	}
}

// TestDifferentialFuzzReachesHeightThree guards the fuzz's coverage: the
// largest tree size must produce height >= 3 so re-seeks exercise a
// multi-level path stack, not just the root.
func TestDifferentialFuzzReachesHeightThree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := buildTree(t, rng, 16000, 1<<14)
	if tr.Height() < 3 {
		t.Fatalf("16000-entry tree has height %d; fuzz no longer covers multi-level re-seeks", tr.Height())
	}
}

// TestScanManyEdgeBatches pins the documented edge cases explicitly.
func TestScanManyEdgeBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const keySpace = 1 << 12
	tr := buildTree(t, rng, 2000, keySpace)
	empty := buildTree(t, rng, 0, keySpace)
	cases := []struct {
		name   string
		tree   *Tree
		ranges []ScanRange
	}{
		{"nil batch", tr, nil},
		{"all empty ranges", tr, []ScanRange{{5, 5}, {9, 3}, {100, 100}}},
		{"empty tree", empty, []ScanRange{{0, keySpace}}},
		{"empty tree many", empty, []ScanRange{{1, 2}, {7, 9}, {100, 400}}},
		{"past max key", tr, []ScanRange{{keySpace * 2, keySpace * 3}}},
		{"straddles max key", tr, []ScanRange{{keySpace - 64, keySpace * 2}}},
		{"adjacent", tr, []ScanRange{{10, 20}, {20, 30}, {30, 40}}},
		{"overlapping", tr, []ScanRange{{10, 200}, {50, 120}, {100, 300}}},
		{"contained", tr, []ScanRange{{0, keySpace}, {17, 23}}},
		{"full then past", tr, []ScanRange{{0, keySpace}, {keySpace + 5, keySpace + 9}}},
		{"singletons far apart", tr, []ScanRange{{3, 4}, {1000, 1001}, {3000, 3001}}},
	}
	for _, c := range cases {
		got := runScanMany(t, c.tree, c.ranges, -1)
		want := oracleScan(t, c.tree, c.ranges, -1)
		if !entriesEqual(got, want) {
			t.Errorf("%s: ScanMany %d entries != oracle %d entries", c.name, len(got), len(want))
		}
	}
}

// TestScanManyEarlyStop: a false-returning visitor must stop the whole
// batch with exactly the oracle's prefix delivered.
func TestScanManyEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const keySpace = 1 << 13
	tr := buildTree(t, rng, 3000, keySpace)
	for trial := 0; trial < 40; trial++ {
		ranges := randomRanges(rng, keySpace)
		limit := rng.Intn(40)
		got := runScanMany(t, tr, ranges, limit)
		want := oracleScan(t, tr, ranges, limit)
		if !entriesEqual(got, want) {
			t.Fatalf("trial=%d limit=%d: ScanMany %d entries != oracle %d", trial, limit, len(got), len(want))
		}
	}
}

func TestScanManyRejectsUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := buildTree(t, rng, 10, 1024)
	err := tr.ScanMany([]ScanRange{{100, 200}, {50, 60}}, func(Entry) bool { return true })
	if err == nil {
		t.Fatal("unsorted batch accepted")
	}
}

// TestScanManyMixedWorkloadInvariants interleaves mutation phases with
// concurrent batched scans (scans may run concurrently with each other, not
// with mutations — the callers' contract) and checks structural invariants
// after every phase. Run under -race in CI.
func TestScanManyMixedWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const keySpace = 1 << 12
	pool := storage.NewBufferPool(storage.NewMemStore(), 48)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[Key]Entry)
	nextID := model.ObjectID(1)
	for round := 0; round < 8; round++ {
		for i := 0; i < 400; i++ {
			e := Entry{
				Key: Key{K: rng.Uint64() % keySpace, ID: nextID},
				Pos: geom.V(rng.Float64(), rng.Float64()),
				T:   float64(round),
			}
			nextID++
			if err := tr.Insert(e); err != nil {
				t.Fatal(err)
			}
			live[e.Key] = e
		}
		for k := range live {
			if rng.Intn(3) != 0 {
				continue
			}
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(live, k)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*10 + g)))
				for i := 0; i < 10; i++ {
					ranges := randomRanges(rng, keySpace)
					var got []Entry
					if err := tr.ScanMany(ranges, func(e Entry) bool {
						got = append(got, e)
						return true
					}); err != nil {
						t.Error(err)
						return
					}
					for _, e := range got {
						if want, ok := live[e.Key]; !ok || want != e {
							t.Errorf("scan returned entry not in live set: %v", e)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPooledScannerSeesStructureChanges scans, changes the tree's shape and
// scans again on the same goroutine — which gets the same pooled scanner back,
// cached path and all — through a root split, a second height change and a
// drain back to a single leaf, against a second tree in between. A scanner
// that trusted any frame from its last call would walk freed or re-used pages.
func TestPooledScannerSeesStructureChanges(t *testing.T) {
	tr := newTestTree(t, 64)
	other := buildTree(t, rand.New(rand.NewSource(2)), 3000, 1<<20)
	ranges := []ScanRange{{Lo: 0, Hi: 50}, {Lo: 400, Hi: 900}, {Lo: 5000, Hi: 1 << 40}}
	check := func(step string) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for _, tree := range []*Tree{tr, other, tr} {
			got, want := runScanMany(t, tree, ranges, -1), oracleScan(t, tree, ranges, -1)
			if !entriesEqual(got, want) {
				t.Fatalf("%s (height %d): ScanMany returned %d entries, the oracle %d", step, tree.Height(), len(got), len(want))
			}
		}
	}
	check("empty")
	next := uint64(0)
	for _, height := range []int{2, 3} {
		for tr.Height() < height {
			if err := tr.Insert(mkEntry(next, 1)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		check("grown")
	}
	for k := uint64(0); k < next; k++ {
		if err := tr.Delete(Key{K: k, ID: 1}); err != nil {
			t.Fatal(err)
		}
		if k == next/2 || tr.Height() == 2 && k%64 == 0 {
			check("draining")
		}
	}
	if tr.Height() != 1 || tr.Len() != 0 {
		t.Fatalf("drained tree has height %d, %d entries", tr.Height(), tr.Len())
	}
	check("drained")
}
