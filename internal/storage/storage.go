// Package storage is the page-store subsystem every index in this
// repository sits on: fixed-size pages (4 KB, Table 1), a PageStore
// interface with two backends, and an LRU buffer pool (50 pages by default).
// Every index stores its nodes through a BufferPool, so "query I/O" is
// exactly the number of buffer-pool misses a query incurs — the metric
// plotted throughout Section 6 of the paper.
//
// The MemStore backend is the paper's simulated disk: a map from PageID to
// page images; it is the default and keeps
// benchmark figures comparable to the paper. The FileStore
// backend (filestore.go) is a real single-file page store with slot-aligned
// pread/pwrite, checksummed slots and fsync on Sync — the pages of the Store's
// WithDataDir mode, as scratch: the file starts empty at every open and holds
// nothing a later process reads.
package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// PageSize is the simulated disk page size in bytes (Table 1: 4 KB).
const PageSize = 4096

// DefaultBufferPages is the paper's default RAM buffer size (Table 1).
const DefaultBufferPages = 50

// PageID identifies a page on the simulated disk. Page 0 is never allocated
// so the zero value can mean "no page".
type PageID uint64

// NilPage is the invalid page id.
const NilPage PageID = 0

// MemStore is the simulated non-volatile store the paper measures against.
// It is safe for concurrent use: multiple buffer pools may front a single
// MemStore (the Store gives every partition its own pool over one shared
// store). Freed page ids are recycled by Allocate (most recently freed
// first), so long-lived stores with index rebuild churn do not leak ids.
type MemStore struct {
	mu     sync.Mutex
	pages  map[PageID][]byte
	free   []PageID // LIFO recycle stack of freed ids
	nextID uint64
	closed atomic.Bool
}

// errMemClosed builds the after-Close error for op; it unwraps to
// os.ErrClosed, matching the FileStore contract.
func errMemClosed(op string) error {
	return fmt.Errorf("storage: %s on closed store: %w", op, os.ErrClosed)
}

// NewMemStore returns an empty in-memory page store.
func NewMemStore() *MemStore {
	return &MemStore{pages: make(map[PageID][]byte)}
}

// Allocate reserves a page id, recycling the most recently freed id if any.
// The page contents start zeroed.
func (d *MemStore) Allocate() (PageID, error) {
	if d.closed.Load() {
		return NilPage, errMemClosed("allocate")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var id PageID
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		d.nextID++
		id = PageID(d.nextID)
	}
	d.pages[id] = make([]byte, PageSize)
	return id, nil
}

// Free releases a page back to the free list. Freed pages may not be read
// again until reallocated.
func (d *MemStore) Free(id PageID) error {
	if d.closed.Load() {
		return errMemClosed("free")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.pages[id]; !ok {
		return fmt.Errorf("storage: free of unallocated page %d", id)
	}
	delete(d.pages, id)
	d.free = append(d.free, id)
	return nil
}

// ReadPage copies the page image into dst. A read of an unallocated page
// fails.
func (d *MemStore) ReadPage(id PageID, dst *[PageSize]byte) error {
	if d.closed.Load() {
		return errMemClosed("read")
	}
	d.mu.Lock()
	src, ok := d.pages[id]
	if ok {
		copy(dst[:], src)
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	return nil
}

// WritePage stores the page image. A write of an unallocated page fails.
func (d *MemStore) WritePage(id PageID, src *[PageSize]byte) error {
	if d.closed.Load() {
		return errMemClosed("write")
	}
	d.mu.Lock()
	dst, ok := d.pages[id]
	if ok {
		copy(dst, src[:])
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	return nil
}

// Sync is a no-op: the simulated store has no volatile write-back cache.
func (d *MemStore) Sync() error {
	if d.closed.Load() {
		return errMemClosed("sync")
	}
	return nil
}

// Close marks the store closed; every later operation fails with an error
// wrapping os.ErrClosed. Close is idempotent: repeated calls return nil.
func (d *MemStore) Close() error {
	d.closed.Store(true)
	return nil
}

// NumPages returns the number of live pages (diagnostics / space metric).
func (d *MemStore) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// frame is a buffer-pool slot. Pin counts and the LRU stamp are atomic so
// the hit fast path can take them under the stripe's shared (read) lock,
// concurrently with other readers; dirty is atomic for the same reason
// (Write marks it outside any lock). The page image itself is only ever
// mutated by a Write closure while the frame is pinned.
type frame struct {
	id    PageID
	data  [PageSize]byte
	pins  atomic.Int32
	dirty atomic.Bool
	stamp atomic.Uint64 // pool-global LRU clock value of the last access
}

// poolStripe is one lock domain of a striped BufferPool: a slice of the page
// table plus its share of the frame budget. Pages are assigned to stripes by
// an id hash, so two goroutines touching unrelated pages almost never meet
// on the same lock.
type poolStripe struct {
	mu       sync.RWMutex
	cond     *sync.Cond // on the write side of mu; signaled on unpin / frame exit
	waiters  atomic.Int32
	capacity int
	frames   map[PageID]*frame
	// owned tracks every page this stripe's pool allocated and has not yet
	// freed, so Retire can release a whole abandoned index's disk footprint.
	owned map[PageID]struct{}
}

// Stripe sizing: a pool only splits into multiple LRU domains when every
// domain still gets a healthy number of frames, so tiny pools (including
// every exact-eviction unit-test configuration) keep the classic single-LRU
// behavior bit for bit. Stripes are a pure function of capacity — never of
// GOMAXPROCS — so eviction patterns and I/O counts are reproducible across
// machines.
const (
	maxPoolStripes     = 8
	minFramesPerStripe = 16
)

func stripeCount(capacity int) int {
	n := capacity / minFramesPerStripe
	if n > maxPoolStripes {
		n = maxPoolStripes
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// BufferPool is an LRU page cache in front of a Disk. It is safe for
// concurrent use by multiple goroutines and is lock-striped: the page table
// is sharded by page-id hash into independent stripes, each with its own
// RWMutex, frame budget and eviction state, so the shard×partition query
// fan-out above it stops serializing on a single pool mutex. A page hit
// takes only its stripe's read lock — lookups, pins, LRU stamps and the
// hit counter are all atomic — so concurrent readers of cached pages
// proceed in parallel; only misses (which pay the simulated disk access
// anyway) take the stripe's write lock.
//
// Eviction is exact LRU within a stripe: every access stamps the frame from
// a pool-global monotonic clock and a miss evicts the unpinned frame with
// the smallest stamp. A stripe whose frames are all pinned by other
// goroutines applies back-pressure — the fetch waits for a pin to release
// instead of failing — so even a pool smaller than the number of concurrent
// readers serves every request under its RAM budget. Pins are only ever
// held across the in-memory encode/decode closures of Read/Write, never
// across another pool access, which is what makes the waiting deadlock-free.
type BufferPool struct {
	disk     PageStore
	capacity int
	stripes  []poolStripe
	clock    atomic.Uint64
	hits     atomic.Int64
	misses   atomic.Int64
	writes   atomic.Int64
}

// Retries always returns 0: every storage error is final, so a pool retries
// no page transfer. It is kept only for benchmark/trace.go, which sums
// p.Retries() into its storage.retries metric and cannot be edited outside
// a benchmark PR; delete it with that metric (ROADMAP item 1b).
func (b *BufferPool) Retries() int64 { return 0 }

// NewBufferPool returns a pool of the given capacity (pages) over any
// PageStore backend. Capacity must be >= 1.
func NewBufferPool(disk PageStore, capacity int) *BufferPool {
	if capacity < 1 {
		panic("storage: buffer pool capacity must be >= 1")
	}
	b := &BufferPool{
		disk:     disk,
		capacity: capacity,
		stripes:  make([]poolStripe, stripeCount(capacity)),
	}
	per := capacity / len(b.stripes)
	extra := capacity % len(b.stripes)
	for i := range b.stripes {
		s := &b.stripes[i]
		s.capacity = per
		if i < extra {
			s.capacity++
		}
		s.frames = make(map[PageID]*frame, s.capacity)
		s.owned = make(map[PageID]struct{})
		s.cond = sync.NewCond(&s.mu)
	}
	return b
}

// stripeFor hashes a page id to its stripe. Fibonacci hashing spreads the
// sequential ids the disk allocator hands out evenly across stripes.
func (b *BufferPool) stripeFor(id PageID) *poolStripe {
	if len(b.stripes) == 1 {
		return &b.stripes[0]
	}
	return &b.stripes[uint64(id)*0x9E3779B97F4A7C15%uint64(len(b.stripes))]
}

// Disk returns the underlying page store.
func (b *BufferPool) Disk() PageStore { return b.disk }

// Capacity returns the pool capacity in pages.
func (b *BufferPool) Capacity() int { return b.capacity }

// Stats is a snapshot of buffer-pool activity.
type Stats struct {
	Misses int64 // pages read from disk (the paper's "I/O")
	Hits   int64 // pages served from the buffer
	Writes int64 // dirty pages written back
}

// Stats returns current counters.
func (b *BufferPool) Stats() Stats {
	return Stats{Misses: b.misses.Load(), Hits: b.hits.Load(), Writes: b.writes.Load()}
}

// evictOne writes back and drops the stripe's least recently used unpinned
// frame and hands it to the caller to reuse for the page it is making room
// for, so a miss does not allocate a fresh 4 KB frame right after dropping
// one: no goroutine can still hold the victim (zero pins, gone from the table
// under the write lock). It returns nil (with a nil error) when every frame
// is pinned — the caller waits for an unpin; err reports only real
// write-back failures. Caller holds s.mu (write). Pin counts cannot rise
// while the write lock is held (pinning needs at least the read lock), so a
// zero-pin victim stays evictable through the write-back.
//
// Victim selection scans the stripe — O(stripe capacity) — instead of
// popping an intrusive LRU list. That is the deliberate price of the hit
// fast path: a linked list would need the write lock on every hit to relink,
// which is exactly the serialization the stamp design removes, while the
// scan runs only on evictions, which accompany a disk access anyway and are
// bounded by the stripe (not pool) capacity.
func (b *BufferPool) evictOne(s *poolStripe) (*frame, error) {
	var victim *frame
	for _, f := range s.frames {
		if f.pins.Load() != 0 {
			continue
		}
		if victim == nil || f.stamp.Load() < victim.stamp.Load() {
			victim = f
		}
	}
	if victim == nil {
		return nil, nil
	}
	if victim.dirty.Load() {
		if err := b.disk.WritePage(victim.id, &victim.data); err != nil {
			return nil, err
		}
		b.writes.Add(1)
	}
	delete(s.frames, victim.id)
	victim.dirty.Store(false)
	return victim, nil
}

// pin returns the frame for id with one pin taken, loading the page from
// disk on a miss. The fast path serves hits under the stripe's read lock;
// the slow path takes the write lock, evicting (or waiting out a stripe
// full of pinned frames — pins are never held across another pool access,
// so some other goroutine always makes progress) and re-checks the table
// each round, since the waited-for page may have been loaded by a
// concurrent fetch meanwhile.
func (b *BufferPool) pin(id PageID) (*frame, error) {
	if id == NilPage {
		return nil, fmt.Errorf("storage: fetch of nil page")
	}
	s := b.stripeFor(id)
	s.mu.RLock()
	if f, ok := s.frames[id]; ok {
		f.pins.Add(1)
		f.stamp.Store(b.clock.Add(1))
		s.mu.RUnlock()
		b.hits.Add(1)
		return f, nil
	}
	s.mu.RUnlock()

	s.mu.Lock()
	var f *frame // the evicted frame, if one had to go; ReadPage overwrites all of data
	for {
		if f, ok := s.frames[id]; ok {
			f.pins.Add(1)
			f.stamp.Store(b.clock.Add(1))
			s.mu.Unlock()
			b.hits.Add(1)
			return f, nil
		}
		if len(s.frames) < s.capacity {
			break
		}
		var err error
		if f, err = b.evictOne(s); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if f == nil {
			s.waiters.Add(1)
			s.cond.Wait()
			s.waiters.Add(-1)
		}
	}
	if f == nil {
		f = new(frame)
	}
	f.id = id
	if err := b.disk.ReadPage(id, &f.data); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	f.pins.Store(1)
	f.stamp.Store(b.clock.Add(1))
	s.frames[id] = f
	s.mu.Unlock()
	b.misses.Add(1)
	return f, nil
}

// unpin releases one pin and wakes any fetch waiting out a fully pinned
// stripe. The waiter count is read under the stripe's read lock: a waiter
// increments it and parks while holding the write lock, so by the time our
// RLock is granted the waiter is either not yet committed to waiting (its
// next table scan sees the released pin) or already parked in Wait (the
// broadcast reaches it) — no wake-up can fall between.
func (b *BufferPool) unpin(s *poolStripe, f *frame) {
	s.mu.RLock()
	f.pins.Add(-1)
	waiters := s.waiters.Load()
	s.mu.RUnlock()
	if waiters > 0 {
		s.cond.Broadcast()
	}
}

// Read runs fn with read access to the page contents. The page is pinned
// for the duration of fn; fn must not retain the slice and must not access
// any buffer pool (a pin held across another pool access could make a full
// pool wait on itself).
func (b *BufferPool) Read(id PageID, fn func(data []byte)) error {
	f, err := b.pin(id)
	if err != nil {
		return err
	}
	fn(f.data[:])
	b.unpin(b.stripeFor(id), f)
	return nil
}

// Write runs fn with mutable access to the page contents and marks the page
// dirty. The same rules as Read apply to fn.
func (b *BufferPool) Write(id PageID, fn func(data []byte)) error {
	f, err := b.pin(id)
	if err != nil {
		return err
	}
	fn(f.data[:])
	f.dirty.Store(true)
	b.unpin(b.stripeFor(id), f)
	return nil
}

// Update is Write for a closure that may find nothing to change: the page is
// marked dirty only when fn reports that it modified the contents, so a
// failed lookup does not cost a write-back. Pinning and hit/miss accounting
// are Write's.
func (b *BufferPool) Update(id PageID, fn func(data []byte) (modified bool)) error {
	f, err := b.pin(id)
	if err != nil {
		return err
	}
	if fn(f.data[:]) {
		f.dirty.Store(true)
	}
	b.unpin(b.stripeFor(id), f)
	return nil
}

// Allocate reserves a new page and installs a zeroed, dirty frame for it so
// the first access is not charged as a read miss (freshly allocated pages
// have no on-disk image worth reading). Like pin, it waits out a stripe
// full of pinned frames.
func (b *BufferPool) Allocate() (PageID, error) {
	id, err := b.disk.Allocate()
	if err != nil {
		return NilPage, err
	}
	s := b.stripeFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	var f *frame // the evicted frame, if one had to go
	for len(s.frames) >= s.capacity {
		if f, err = b.evictOne(s); err != nil {
			return NilPage, err
		}
		if f == nil {
			s.waiters.Add(1)
			s.cond.Wait()
			s.waiters.Add(-1)
		}
	}
	if f == nil {
		f = new(frame)
	} else {
		f.data = [PageSize]byte{}
	}
	f.id = id
	f.dirty.Store(true)
	f.stamp.Store(b.clock.Add(1))
	s.frames[id] = f
	s.owned[id] = struct{}{}
	return id, nil
}

// Free drops the page from the pool (without write-back) and releases it on
// disk. The page must not be pinned.
func (b *BufferPool) Free(id PageID) error {
	s := b.stripeFor(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		if f.pins.Load() > 0 {
			s.mu.Unlock()
			return fmt.Errorf("storage: freeing pinned page %d", id)
		}
		delete(s.frames, id)
	}
	delete(s.owned, id)
	s.mu.Unlock()
	s.cond.Broadcast() // a frame left: a waiting fetch may now have room
	return b.disk.Free(id)
}

// Retire permanently releases the pool: every cached frame is dropped
// without write-back and every page the pool ever allocated (and not since
// freed) is released on the disk. This is for pools whose whole index
// structure is being abandoned — a replaced partition epoch, a failed
// swap's half-built one — so repeated rebuilds do not
// accumulate dead pages and cached frames forever. The caller must
// guarantee no index still uses the pool; the pool must not be used
// afterwards.
func (b *BufferPool) Retire() {
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		s.frames = make(map[PageID]*frame)
		for id := range s.owned {
			_ = b.disk.Free(id) // best-effort: the structure is abandoned
		}
		s.owned = make(map[PageID]struct{})
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

// FlushAll writes back every dirty frame (kept resident). Used by tests and
// when snapshotting space usage.
func (b *BufferPool) FlushAll() error {
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		for id, f := range s.frames {
			if f.dirty.Load() {
				if err := b.disk.WritePage(id, &f.data); err != nil {
					s.mu.Unlock()
					return err
				}
				b.writes.Add(1)
				f.dirty.Store(false)
			}
		}
		s.mu.Unlock()
	}
	return nil
}
