package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDiskAllocateReadWrite(t *testing.T) {
	d := NewMemStore()
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id == NilPage {
		t.Fatal("allocated NilPage")
	}
	var buf [PageSize]byte
	buf[0] = 0xAB
	buf[PageSize-1] = 0xCD
	if err := d.WritePage(id, &buf); err != nil {
		t.Fatal(err)
	}
	var got [PageSize]byte
	if err := d.ReadPage(id, &got); err != nil {
		t.Fatal(err)
	}
	if got != buf {
		t.Fatal("read back mismatch")
	}
}

func TestDiskFreedPageErrors(t *testing.T) {
	d := NewMemStore()
	id, _ := d.Allocate()
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	var buf [PageSize]byte
	if err := d.ReadPage(id, &buf); err == nil {
		t.Fatal("read of freed page should error")
	}
	if err := d.WritePage(id, &buf); err == nil {
		t.Fatal("write of freed page should error")
	}
	if err := d.Free(id); err == nil {
		t.Fatal("double free should error")
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, 2)
	a, _ := p.Allocate()
	if err := p.Write(a, func(data []byte) { data[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	// Freshly allocated pages are resident: no read miss yet.
	if s := p.Stats(); s.Misses != 0 {
		t.Fatalf("misses = %d after allocate+write", s.Misses)
	}
	if err := p.Read(a, func(data []byte) {
		if data[0] != 1 {
			t.Error("lost write")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Hits != 2 { // write + read both hit the fresh frame
		t.Fatalf("hits = %d, want 2", s.Hits)
	}
}

func TestBufferPoolEvictionLRU(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, 2)
	a, _ := p.Allocate()
	b, _ := p.Allocate()
	c, _ := p.Allocate() // evicts a (LRU)
	// Write distinct markers.
	for i, id := range []PageID{a, b, c} {
		v := byte(i + 1)
		if err := p.Write(id, func(data []byte) { data[0] = v }); err != nil {
			t.Fatal(err)
		}
	}
	// After writing a, b, c with capacity 2 the pool holds the 2 MRU pages.
	base := p.Stats().Misses
	if err := p.Read(c, func(data []byte) {
		if data[0] != 3 {
			t.Error("c corrupted")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Misses != base {
		t.Fatal("c should be resident")
	}
	if err := p.Read(a, func(data []byte) {
		if data[0] != 1 {
			t.Error("a lost its dirty data across eviction")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Misses != base+1 {
		t.Fatal("a should have been a miss")
	}
}

// TestMissRecyclesEvictedFrame: a miss in a full pool reuses the frame it
// evicts — no allocation per miss — and the reuse is invisible: a recycled
// frame shows its own page's bytes (Allocate: zeros), comes back clean, and
// every access is counted as before.
func TestMissRecyclesEvictedFrame(t *testing.T) {
	d := newCountingStore()
	p := NewBufferPool(d, 2)
	ids := make([]PageID, 6)
	for i := range ids {
		id, err := p.Allocate() // from the third on, into an evicted dirty frame
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := p.Read(id, func(data []byte) {
			for _, c := range data {
				if c != 0 {
					t.Fatalf("page %d allocated into a frame still holding old bytes", id)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, func(data []byte) {
			for j := range data {
				data[j] = byte(i + 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	before, writesBefore := p.Stats(), d.writes.Load()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		want := byte(i%len(ids) + 1)
		if err := p.Read(ids[i%len(ids)], func(data []byte) {
			if data[0] != want || data[PageSize-1] != want {
				t.Errorf("page %d read %d..%d through a recycled frame, want %d", ids[i%len(ids)], data[0], data[PageSize-1], want)
			}
		}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a miss allocated %.1f times, want 0", allocs)
	}
	// A cyclic walk of 6 pages through 2 frames never hits; the pages were
	// clean, and a recycled frame must not carry its predecessor's dirty bit.
	after := p.Stats()
	if after.Misses-before.Misses != int64(i) || after.Hits != before.Hits || after.Writes != before.Writes || d.writes.Load() != writesBefore {
		t.Fatalf("%d cyclic reads: stats %+v -> %+v, physical writes %d -> %d", i, before, after, writesBefore, d.writes.Load())
	}
}

func TestBufferPoolWriteBackOnEviction(t *testing.T) {
	d := newCountingStore()
	p := NewBufferPool(d, 1)
	a, _ := p.Allocate()
	if err := p.Write(a, func(data []byte) { data[7] = 0x77 }); err != nil {
		t.Fatal(err)
	}
	b, _ := p.Allocate() // evicts dirty a -> must write back
	_ = b
	if d.writes.Load() == 0 {
		t.Fatal("dirty page not written back on eviction")
	}
	if err := p.Read(a, func(data []byte) {
		if data[7] != 0x77 {
			t.Error("data lost through eviction")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolUpdate: Update is Write whose closure decides whether the
// page is dirty — same pin accounting, a write-back only for a reported
// change, and a change reported once stays dirty through later clean visits.
func TestBufferPoolUpdate(t *testing.T) {
	d := newCountingStore()
	p := NewBufferPool(d, 2)
	a, _ := p.Allocate()
	if err := p.FlushAll(); err != nil { // a fresh page starts dirty
		t.Fatal(err)
	}
	base, stats := d.writes.Load(), p.Stats()

	if err := p.Update(a, func(data []byte) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if w := d.writes.Load() - base; w != 0 {
		t.Fatalf("Update reporting no change cost %d write-backs", w)
	}
	if s := p.Stats(); s.Hits != stats.Hits+1 || s.Misses != stats.Misses {
		t.Fatalf("Update of a cached page: stats %+v -> %+v, want one more hit", stats, s)
	}

	if err := p.Update(a, func(data []byte) bool { data[7] = 0x77; return true }); err != nil {
		t.Fatal(err)
	}
	if err := p.Update(a, func(data []byte) bool { return false }); err != nil {
		t.Fatal(err)
	}
	b, _ := p.Allocate()
	c, _ := p.Allocate() // evicts a: the earlier change must reach the disk
	_, _ = b, c
	if w := d.writes.Load() - base; w != 1 {
		t.Fatalf("%d write-backs after evicting a modified page, want 1", w)
	}
	if err := p.Read(a, func(data []byte) {
		if data[7] != 0x77 {
			t.Error("Update's change lost through eviction")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Update(NilPage, func([]byte) bool { return true }); err == nil {
		t.Fatal("Update of the nil page succeeded")
	}
}

func TestBufferPoolManyPages(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, DefaultBufferPages)
	const n = 500
	ids := make([]PageID, n)
	for i := range ids {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		v := byte(i % 251)
		if err := p.Write(id, func(data []byte) { data[100] = v }); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		want := byte(i % 251)
		if err := p.Read(id, func(data []byte) {
			if data[100] != want {
				t.Errorf("page %d: got %d want %d", id, data[100], want)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	resident := 0
	for i := range p.stripes {
		resident += len(p.stripes[i].frames)
	}
	if resident > DefaultBufferPages {
		t.Fatalf("resident %d exceeds capacity", resident)
	}
}

func TestBufferPoolFree(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, 4)
	a, _ := p.Allocate()
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(a, func([]byte) {}); err == nil {
		t.Fatal("read of freed page should fail")
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	d := newCountingStore()
	p := NewBufferPool(d, 8)
	a, _ := p.Allocate()
	if err := p.Write(a, func(data []byte) { data[0] = 9 }); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if d.writes.Load() == 0 {
		t.Fatal("FlushAll wrote nothing")
	}
	// Page remains resident and readable.
	if err := p.Read(a, func(data []byte) {
		if data[0] != 9 {
			t.Error("flush corrupted page")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	NewBufferPool(NewMemStore(), 0)
}

func TestBufferPoolConcurrentAccess(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, 16)
	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i], _ = p.Allocate()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(g*31+i)%pages]
				if err := p.Write(id, func(data []byte) { data[g]++ }); err != nil {
					errs <- err
					return
				}
				if err := p.Read(id, func(data []byte) {}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, 1)
	a, _ := p.Allocate()
	b, _ := p.Allocate() // evicts a
	_ = p.Read(a, func([]byte) {})
	_ = p.Read(b, func([]byte) {})
	_ = p.Read(a, func([]byte) {})
	s := p.Stats()
	// a was evicted by b's allocation, read(a)=miss, read(b)=miss (evicted
	// by a), read(a)=miss again.
	if s.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (%+v)", s.Misses, s)
	}
}

func TestStripeCountPureFunctionOfCapacity(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1}, {2, 1}, {16, 1}, {31, 1}, {32, 2}, {50, 2},
		{64, 4}, {128, 8}, {384, 8}, {10_000, 8},
	}
	for _, c := range cases {
		p := NewBufferPool(NewMemStore(), c.capacity)
		if got := len(p.stripes); got != c.want {
			t.Errorf("stripes(capacity=%d) = %d, want %d", c.capacity, got, c.want)
		}
		// The stripe budgets must sum to the pool capacity exactly.
		total := 0
		for i := range p.stripes {
			total += p.stripes[i].capacity
		}
		if total != c.capacity {
			t.Errorf("capacity %d: stripe budgets sum to %d", c.capacity, total)
		}
	}
}

// TestStatsExactUnderConcurrentReaders pins down the optimistic fast path's
// accounting: with every page resident, N goroutines hammering Read must
// produce exactly N*perG hits — a fast-path hit that went uncounted (or
// double-counted) shows up as a wrong total, not a flaky ratio.
func TestStatsExactUnderConcurrentReaders(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, 64) // multiple stripes; everything stays resident
	const pages = 48
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i], _ = p.Allocate()
	}
	base := p.Stats()
	if base.Misses != 0 {
		t.Fatalf("fresh allocations counted as misses: %+v", base)
	}
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := p.Read(ids[(g*13+i)%pages], func([]byte) {}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := p.Stats()
	if s.Misses != 0 {
		t.Fatalf("resident working set missed %d times", s.Misses)
	}
	if got, want := s.Hits-base.Hits, int64(goroutines*perG); got != want {
		t.Fatalf("hits = %d, want exactly %d", got, want)
	}
}

// TestStatsExactUnderConcurrentThrash is the same exactness claim when the
// working set overflows the pool: every Read is either a hit or a miss,
// never both, never neither, even while evictions race the fast path.
func TestStatsExactUnderConcurrentThrash(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, 32)
	const pages = 96
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i], _ = p.Allocate()
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	base := p.Stats()
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := p.Read(ids[(g*29+i*7)%pages], func([]byte) {}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := p.Stats()
	accesses := (s.Hits - base.Hits) + (s.Misses - base.Misses)
	if want := int64(goroutines * perG); accesses != want {
		t.Fatalf("hits+misses = %d, want exactly %d (%+v)", accesses, want, s)
	}
	if s.Misses == base.Misses {
		t.Fatal("thrashing working set produced no misses; test is not exercising eviction")
	}
}

// TestStripedPoolEvictionStillLRU: with multiple stripes, eviction within a
// stripe must still pick the least recently used unpinned frame (the global
// access clock makes "least recent" exact, not approximate).
func TestStripedPoolEvictionStillLRU(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, 32) // 2 stripes of 16
	if len(p.stripes) < 2 {
		t.Skip("striping thresholds changed; test needs >= 2 stripes")
	}
	// Fill one stripe to capacity, then touch all but one of its pages and
	// force an eviction: the untouched page must be the victim.
	s0 := &p.stripes[0]
	var inStripe []PageID
	for len(inStripe) < s0.capacity+1 {
		id, _ := d.Allocate()
		if p.stripeFor(id) == s0 {
			inStripe = append(inStripe, id)
		}
	}
	resident := inStripe[:s0.capacity]
	overflow := inStripe[s0.capacity]
	for _, id := range resident {
		if err := p.Read(id, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	victim := resident[3]
	for _, id := range resident {
		if id == victim {
			continue
		}
		if err := p.Read(id, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Read(overflow, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	base := p.Stats().Misses
	if err := p.Read(victim, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Misses != base+1 {
		t.Fatal("LRU page was not the eviction victim")
	}
	// Reloading the victim evicted the now-eldest frame, not the most
	// recently used overflow page, which must still be resident.
	if err := p.Read(overflow, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Misses != base+1 {
		t.Fatal("recently used page was evicted instead of the LRU one")
	}
}

func ExampleBufferPool() {
	disk := NewMemStore()
	pool := NewBufferPool(disk, DefaultBufferPages)
	id, _ := pool.Allocate()
	_ = pool.Write(id, func(data []byte) { data[0] = 42 })
	_ = pool.Read(id, func(data []byte) { fmt.Println(data[0]) })
	// Output: 42
}

func TestFullPoolBlocksUntilUnpin(t *testing.T) {
	// With a 1-frame pool, a fetch that finds the only frame pinned by
	// another goroutine must wait for the pin to release (back-pressure),
	// not evict the pinned frame and not fail.
	d := NewMemStore()
	p := NewBufferPool(d, 1)
	a, _ := p.Allocate()
	b, _ := d.Allocate()

	holding := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = p.Read(a, func([]byte) {
			close(holding)
			<-release
		})
	}()
	<-holding

	done := make(chan error, 1)
	go func() { done <- p.Read(b, func([]byte) {}) }()
	select {
	case err := <-done:
		t.Fatalf("fetch completed while the only frame was pinned (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
		// Still blocked: the pinned frame was not evicted from under its
		// reader.
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("fetch after unpin: %v", err)
	}
}

func TestTinyPoolConcurrentReaders(t *testing.T) {
	// More concurrent readers than frames: every read must still succeed
	// (waiting as needed), and pinned frames must never be evicted.
	d := NewMemStore()
	p := NewBufferPool(d, 2)
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(w+i)%len(ids)]
				if err := p.Read(id, func(data []byte) {}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFreePinnedPageRejected(t *testing.T) {
	d := NewMemStore()
	p := NewBufferPool(d, 2)
	a, _ := p.Allocate()
	var freeErr error
	if err := p.Read(a, func([]byte) {
		freeErr = p.Free(a)
	}); err != nil {
		t.Fatal(err)
	}
	if freeErr == nil {
		t.Fatal("freeing a pinned page should fail")
	}
	if err := p.Free(a); err != nil {
		t.Fatalf("freeing after unpin: %v", err)
	}
}

func TestReadUnallocatedThroughPool(t *testing.T) {
	p := NewBufferPool(NewMemStore(), 2)
	if err := p.Read(PageID(12345), func([]byte) {}); err == nil {
		t.Fatal("read of never-allocated page should fail")
	}
	if err := p.Read(NilPage, func([]byte) {}); err == nil {
		t.Fatal("read of nil page should fail")
	}
}

// TestDiskFailedAccessNotCounted pins that a page transfer the store refuses
// is an error and never shows in the pool's physical I/O counters: Misses
// counts completed reads and Writes completed write-backs only.
func TestDiskFailedAccessNotCounted(t *testing.T) {
	d := NewMemStore()
	var buf [PageSize]byte
	if err := d.ReadPage(PageID(999), &buf); err == nil {
		t.Fatal("read of unallocated page should fail")
	}
	if err := d.WritePage(PageID(999), &buf); err == nil {
		t.Fatal("write of unallocated page should fail")
	}

	p := NewBufferPool(d, 4)
	if err := p.Read(PageID(999), func([]byte) {}); err == nil {
		t.Fatal("pool read of unallocated page should fail")
	}
	if s := p.Stats(); s.Misses != 0 || s.Writes != 0 {
		t.Fatalf("failed read counted as I/O: %+v", s)
	}

	id, _ := d.Allocate()
	if err := d.WritePage(id, &buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(id, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Misses != 1 || s.Writes != 0 {
		t.Fatalf("successful read miscounted: %+v", s)
	}

	// A dirty frame whose page was freed behind the pool: its write-back
	// fails and is not counted.
	if err := p.Write(id, func(b []byte) { b[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(id, &buf); err == nil {
		t.Fatal("read of freed page should fail")
	}
	if err := p.FlushAll(); err == nil {
		t.Fatal("write-back of a freed page should fail")
	}
	if s := p.Stats(); s.Misses != 1 || s.Writes != 0 {
		t.Fatalf("failed write-back counted as I/O: %+v", s)
	}
}

// countingStore counts the successful page writes of the MemStore it wraps:
// the physical write-backs that the buffer-pool tests check Stats against.
type countingStore struct {
	*MemStore
	writes atomic.Int64
}

func newCountingStore() *countingStore { return &countingStore{MemStore: NewMemStore()} }

func (c *countingStore) WritePage(id PageID, src *[PageSize]byte) error {
	err := c.MemStore.WritePage(id, src)
	if err == nil {
		c.writes.Add(1)
	}
	return err
}
