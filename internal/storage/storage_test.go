package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
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
// stripe must still pick the least recently used unpinned frame (the
// stripe's access clock makes "least recent" exact, not approximate).
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
// counts completed reads and Writes completed write-backs only. It runs on
// both paths, and takes the dirty page's store away two ways: the page freed
// behind the pool, or the whole store closed.
func TestDiskFailedAccessNotCounted(t *testing.T) {
	for _, path := range poolPaths {
		for _, lose := range []string{"freed", "closed"} {
			t.Run(path.name+"/"+lose, func(t *testing.T) {
				failedAccessNotCounted(t, path.store, lose)
			})
		}
	}
}

func failedAccessNotCounted(t *testing.T, store func(*MemStore) PageStore, lose string) {
	d := NewMemStore()
	var buf [PageSize]byte
	if err := d.ReadPage(PageID(999), &buf); err == nil {
		t.Fatal("read of unallocated page should fail")
	}
	if err := d.WritePage(PageID(999), &buf); err == nil {
		t.Fatal("write of unallocated page should fail")
	}

	p := NewBufferPool(store(d), 4)
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

	if err := p.Write(id, func(b []byte) { b[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	switch lose {
	case "freed":
		// A dirty frame whose page was freed behind the pool: its
		// write-back fails and is not counted.
		if err := d.Free(id); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadPage(id, &buf); err == nil {
			t.Fatal("read of freed page should fail")
		}
	case "closed":
		// After Close a hit still serves the frame's bytes, but a miss and
		// the dirty frame's write-back fail, uncounted.
		other, _ := d.Allocate()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		hits := p.Stats().Hits
		if err := p.Read(id, func(b []byte) {
			if b[0] != 1 {
				t.Errorf("hit after Close reads %d, want the frame's 1", b[0])
			}
		}); err != nil {
			t.Fatalf("hit after Close: %v", err)
		}
		if s := p.Stats(); s.Hits != hits+1 {
			t.Fatalf("hit after Close counted %d hits, want 1", s.Hits-hits)
		}
		if err := p.Read(other, func([]byte) {}); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("miss after Close: %v, want an error wrapping os.ErrClosed", err)
		}
	}
	if err := p.FlushAll(); err == nil {
		t.Fatal("write-back of a " + lose + " page should fail")
	}
	if s := p.Stats(); s.Misses != 1 || s.Writes != 0 {
		t.Fatalf("failed write-back counted as I/O: %+v", s)
	}
}

// TestAllocateFailedWriteBackFreesPage: an Allocate whose eviction cannot
// write the victim back fails, and the page id it reserved goes back to the
// disk instead of leaking past Retire.
func TestAllocateFailedWriteBackFreesPage(t *testing.T) {
	d := &failingWrites{MemStore: NewMemStore()}
	p := NewBufferPool(d, 2)
	for i := 0; i < 2; i++ { // two dirty frames fill the pool
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	d.fail.Store(true)
	if id, err := p.Allocate(); err == nil {
		t.Fatalf("Allocate over a failing write-back returned page %d", id)
	} else if !errors.Is(err, errWriteRefused) {
		t.Fatalf("Allocate error %v does not wrap the write-back's", err)
	}
	if n := d.NumPages(); n != 2 {
		t.Fatalf("after the failed Allocate the disk holds %d pages, want the 2 resident ones", n)
	}
	p.Retire()
	if n := d.NumPages(); n != 0 {
		t.Fatalf("Retire left %d pages on the disk", n)
	}
}

// checkFrameTables fails unless every stripe's page map and free stack
// partition its frame table: each resident page maps to a slot holding it,
// each free slot is empty, and no slot is counted twice. On the shared path
// a resident slot's image must be the store's image of its page, and an
// empty slot must hold no image; the store's page map is read under one hold
// of its lock.
func checkFrameTables(t *testing.T, p *BufferPool) {
	t.Helper()
	if p.mem != nil {
		p.mem.mu.Lock()
		defer p.mem.mu.Unlock()
	}
	for i := range p.stripes {
		s := &p.stripes[i]
		seen, n := make([]bool, len(s.table)), 0
		for id, slot := range s.frames {
			if int(slot) >= len(s.table) {
				t.Fatalf("stripe %d: page %d maps to slot %d, outside the table of %d", i, id, slot, len(s.table))
			}
			if s.table[slot].id != id || seen[slot] {
				t.Fatalf("stripe %d: page %d maps to slot %d, which holds page %d (seen twice: %v)", i, id, slot, s.table[slot].id, seen[slot])
			}
			if p.mem != nil {
				if img, ok := p.mem.pages[id]; !ok || s.table[slot].data != img {
					t.Fatalf("stripe %d: page %d's slot %d is not the store's image of it (allocated: %v)", i, id, slot, ok)
				}
			}
			seen[slot] = true
			n++
		}
		for _, slot := range s.free {
			if int(slot) >= len(s.table) {
				t.Fatalf("stripe %d: free slot %d is outside the table of %d", i, slot, len(s.table))
			}
			if s.table[slot].id != NilPage || seen[slot] {
				t.Fatalf("stripe %d: free slot %d holds page %d (seen twice: %v)", i, slot, s.table[slot].id, seen[slot])
			}
			if p.mem != nil && s.table[slot].data != nil {
				t.Fatalf("stripe %d: empty slot %d still points at a page image", i, slot)
			}
			seen[slot] = true
			n++
		}
		if n != s.capacity || len(s.table) != s.capacity {
			t.Fatalf("stripe %d: %d resident + %d free slots, table of %d, capacity %d", i, len(s.frames), len(s.free), len(s.table), s.capacity)
		}
	}
}

// TestFrameTableSurvivesEveryExit walks a frame through every way in and
// out of a stripe's table — a miss that fails after its eviction, Free,
// FlushAll, Retire — and checks the page map against the table after each,
// on both paths.
func TestFrameTableSurvivesEveryExit(t *testing.T) {
	t.Run("shared", func(t *testing.T) { frameTableExits(t, NewMemStore()) })
	t.Run("copying", func(t *testing.T) { frameTableExits(t, newCountingStore()) })
}

func frameTableExits(t *testing.T, d PageStore) {
	p := NewBufferPool(d, 2)
	a, _ := p.Allocate()
	b, _ := p.Allocate()
	if err := p.Write(a, func(data []byte) { data[0] = 7 }); err != nil {
		t.Fatal(err)
	}
	checkFrameTables(t, p)
	// The read of a page the disk does not hold evicts b (written back), then
	// fails: its slot must come back empty, not keep the failed page.
	if err := p.Read(PageID(999), func([]byte) {}); err == nil {
		t.Fatal("read of an unallocated page succeeded")
	}
	checkFrameTables(t, p)
	if len(p.stripes[0].frames) != 1 || p.Stats().Writes != 1 {
		t.Fatalf("after the failed miss: %d resident, %d write-backs; want 1 and 1", len(p.stripes[0].frames), p.Stats().Writes)
	}
	if c, ok := d.(*countingStore); ok && c.writes.Load() != 1 {
		t.Fatalf("after the failed miss: %d physical writes, want 1", c.writes.Load())
	}
	if err := p.Read(b, func(data []byte) {}); err != nil {
		t.Fatal(err)
	}
	checkFrameTables(t, p)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	checkFrameTables(t, p)
	c, _ := p.Allocate() // into the slot Free emptied: zeroed, not a's bytes
	if err := p.Read(c, func(data []byte) {
		if data[0] != 0 {
			t.Errorf("page %d allocated into a freed slot reads %d", c, data[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
	checkFrameTables(t, p)
	p.Retire()
	checkFrameTables(t, p)
	if n := len(p.stripes[0].frames); n != 0 || d.NumPages() != 0 {
		t.Fatalf("Retire left %d frames and %d disk pages", n, d.NumPages())
	}
}

// TestPoolLayout pins the cache-line layout the hit path relies on: one
// 64-byte header per frame, and a stripe of two lines whose second starts at
// the page map (the first is written by every access of the stripe).
func TestPoolLayout(t *testing.T) {
	if n := unsafe.Sizeof(frame{}); n != 64 {
		t.Errorf("frame header is %d bytes, want 64", n)
	}
	var s poolStripe
	if n, off := unsafe.Sizeof(s), unsafe.Offsetof(s.frames); n != 128 || off != 64 {
		t.Errorf("stripe is %d bytes with its map at %d, want 128 and 64", n, off)
	}
}

// poolPaths are the two ways a BufferPool works over a MemStore: on the
// store's own page images when it is handed the bare store, on copies when
// a wrapper hides it.
var poolPaths = []struct {
	name  string
	store func(*MemStore) PageStore
}{
	{"shared", func(d *MemStore) PageStore { return d }},
	{"copying", func(d *MemStore) PageStore { return hiddenStore{d} }},
}

// hiddenStore passes every call through to the store it wraps; a pool over
// it cannot see a MemStore underneath, so it takes the copying path.
type hiddenStore struct{ PageStore }

var errWriteRefused = errors.New("write refused")

// failingWrites is a MemStore whose page writes fail once fail is set.
type failingWrites struct {
	*MemStore
	fail atomic.Bool
}

func (f *failingWrites) WritePage(id PageID, src *[PageSize]byte) error {
	if f.fail.Load() {
		return errWriteRefused
	}
	return f.MemStore.WritePage(id, src)
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
