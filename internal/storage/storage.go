// Package storage is the page-store subsystem every index in this
// repository sits on: fixed-size pages (4 KB, Table 1), a PageStore
// interface with two backends, and an LRU buffer pool (50 pages by default).
// Every index stores its nodes through a BufferPool, so "query I/O" is
// exactly the number of buffer-pool misses a query incurs — the metric
// plotted throughout Section 6 of the paper.
//
// The MemStore backend is the paper's simulated disk: a map from PageID to
// one 4 KB image per page; it is the default and keeps benchmark figures
// comparable to the paper. A pool directly over a MemStore works on those
// images in place — a miss points its frame at the store's image and a
// write-back only checks the page is still allocated — while a pool over any
// other backend copies each page into an image of its own. Both paths count
// the same misses, hits and write-backs. The FileStore
// backend (filestore.go) is a real single-file page store with slot-aligned
// pread/pwrite, checksummed slots and fsync on Sync — the pages of the Store's
// WithDataDir mode, as scratch: the file starts empty at every open and holds
// nothing a later process reads.
package storage

import (
	"errors"
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
//
// Each page is one heap image that a BufferPool over the bare store uses as
// its frame's bytes (NewBufferPool). Ownership rule: while a pool fronts one
// of the store's pages — from the pool's Allocate or miss of it until the
// pool frees it, retires or evicts it — only that pool touches its bytes, and
// a direct ReadPage or WritePage of that page is a data race.
type MemStore struct {
	mu     sync.Mutex
	pages  map[PageID]*[PageSize]byte
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
	return &MemStore{pages: make(map[PageID]*[PageSize]byte)}
}

// Allocate reserves a page id, recycling the most recently freed id if any.
// The page contents start zeroed.
func (d *MemStore) Allocate() (PageID, error) {
	id, _, err := d.allocate()
	return id, err
}

// allocate is Allocate that also returns the page's fresh zeroed image. A
// recycled id gets a new image, so a frame still pointing at the image of
// the freed page can never write into the new one.
func (d *MemStore) allocate() (PageID, *[PageSize]byte, error) {
	if d.closed.Load() {
		return NilPage, nil, errMemClosed("allocate")
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
	img := new([PageSize]byte)
	d.pages[id] = img
	return id, img, nil
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
		*dst = *src
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
		*dst = *src
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	return nil
}

// image is the miss of a pool working on the store's pages in place: it
// returns the store's own image of page id. It fails as ReadPage does.
func (d *MemStore) image(id PageID) (*[PageSize]byte, error) {
	if d.closed.Load() {
		return nil, errMemClosed("read")
	}
	d.mu.Lock()
	img, ok := d.pages[id]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: read of unallocated page %d", id)
	}
	return img, nil
}

// holds is the write-back of a pool working on the store's pages in place:
// the bytes are already the store's, so it only fails, as WritePage does,
// unless page id is still allocated to img. A page freed behind the pool —
// and maybe reallocated since, with a new image — fails.
func (d *MemStore) holds(id PageID, img *[PageSize]byte) error {
	if d.closed.Load() {
		return errMemClosed("write")
	}
	d.mu.Lock()
	cur := d.pages[id]
	d.mu.Unlock()
	if cur != img {
		return fmt.Errorf("storage: write-back of page %d, which was freed behind its pool", id)
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

// frame is one slot of a stripe's frame table. Pin counts and the LRU stamp
// are atomic so the hit fast path can take them under the stripe's shared
// (read) lock, concurrently with other readers; dirty is atomic for the same
// reason (Write marks it outside any lock). id changes only under the
// stripe's write lock. data is the page's bytes: over a bare MemStore the
// store's own image of the page, dropped whenever the slot empties; over any
// other backend the slot's own image, allocated at the slot's first use and
// kept for every page the slot holds after. Either way a miss allocates
// nothing, and the bytes are only ever mutated by a Write closure while the
// frame is pinned.
type frame struct {
	id    PageID // NilPage while the slot is empty
	data  *[PageSize]byte
	pins  atomic.Int32
	dirty atomic.Bool
	stamp atomic.Uint64 // the stripe's LRU clock at the last access
	// Pads the header to a cache line (TestPoolLayout): a hit writes pins and
	// stamp, so hits on neighbouring slots from different CPUs must not share
	// a line.
	_ [32]byte
}

// poolStripe is one lock domain of a striped BufferPool: a slice of the page
// table plus its share of the frame budget. Pages are assigned to stripes by
// an id hash, so two goroutines touching unrelated pages almost never meet
// on the same lock.
//
// The stripe's frames live in one dense table of capacity slots; frames maps
// each resident page to its slot and free stacks the empty slots, so
// len(frames) + len(free) == capacity.
//
// A stripe is two cache lines (TestPoolLayout): the first holds what every
// access writes — the lock word, the LRU clock and the hit counter — and the
// second starts with the map and table a hit only reads.
type poolStripe struct {
	mu      sync.RWMutex
	clock   atomic.Uint64
	hits    atomic.Int64
	waiters atomic.Int32

	cond     *sync.Cond // on the write side of mu; signaled on unpin / frame exit
	capacity int
	frames   map[PageID]int32 // resident page -> slot in table
	table    []frame
	free     []int32 // empty slots of table
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

// BufferPool is an LRU page cache in front of a PageStore. It is safe for
// concurrent use by multiple goroutines and is lock-striped: the page table
// is sharded by page-id hash into independent stripes, each with its own
// RWMutex, frame table, LRU clock and hit counter, so the shard×partition
// query fan-out above it stops serializing on a single pool mutex. A page hit
// takes only its stripe's read lock — lookups, pins, LRU stamps and the hit
// counter are all atomic — so concurrent readers of cached pages proceed in
// parallel; only misses (which pay the simulated disk access anyway) take the
// stripe's write lock.
//
// Eviction is exact LRU within a stripe: every access stamps the frame from
// the stripe's monotonic clock and a miss evicts the unpinned frame with the
// smallest stamp. A stripe whose frames are all pinned by other
// goroutines applies back-pressure — the fetch waits for a pin to release
// instead of failing — so even a pool smaller than the number of concurrent
// readers serves every request under its RAM budget. Pins are only ever
// held across the in-memory encode/decode closures of Read/Write, never
// across another pool access, which is what makes the waiting deadlock-free.
//
// Over a bare *MemStore the pool works on the store's page images in place
// (the shared path): a miss points the frame at the store's image, holding
// the store's lock only for the lookup; Allocate installs the store's fresh
// zeroed image; and a dirty frame's write-back copies nothing — it checks
// that the page is still allocated to that image and counts the write. Over
// any other backend (FileStore, or a wrapper that sees each transfer) every
// miss copies the page into the frame's own image with ReadPage and every
// write-back copies it out with WritePage. Victims, misses, hits and
// write-backs are the same on both paths.
type BufferPool struct {
	disk     PageStore
	mem      *MemStore // disk, when it is a bare MemStore: the shared path
	capacity int
	stripes  []poolStripe
	misses   atomic.Int64
	writes   atomic.Int64
}

// Retries always returns 0: every storage error is final, so a pool retries
// no page transfer. It is kept only for benchmark/trace.go, which sums
// p.Retries() into its storage.retries metric and cannot be edited outside
// a benchmark PR; delete it with that metric (ROADMAP item 1b).
func (b *BufferPool) Retries() int64 { return 0 }

// NewBufferPool returns a pool of the given capacity (pages) over any
// PageStore backend; over a bare *MemStore it takes the shared path.
// Capacity must be >= 1.
func NewBufferPool(disk PageStore, capacity int) *BufferPool {
	if capacity < 1 {
		panic("storage: buffer pool capacity must be >= 1")
	}
	mem, _ := disk.(*MemStore)
	b := &BufferPool{
		disk:     disk,
		mem:      mem,
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
		s.frames = make(map[PageID]int32, s.capacity)
		s.table = make([]frame, s.capacity)
		s.free = emptySlots(s.free, s.capacity)
		s.owned = make(map[PageID]struct{})
		s.cond = sync.NewCond(&s.mu)
	}
	return b
}

// emptySlots refills free with every slot of an n-slot table, slot 0 on top.
func emptySlots(free []int32, n int) []int32 {
	free = free[:0]
	for i := n - 1; i >= 0; i-- {
		free = append(free, int32(i))
	}
	return free
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
	st := Stats{Misses: b.misses.Load(), Writes: b.writes.Load()}
	for i := range b.stripes {
		st.Hits += b.stripes[i].hits.Load()
	}
	return st
}

// evictOne writes back the stripe's least recently used unpinned frame and
// empties its slot onto the free stack; on the copying path the slot keeps
// its page image, so the miss that reuses it does not allocate. It reports
// false (with a nil error) when every frame is pinned — the caller waits for
// an unpin; err reports only real write-back failures. Caller holds s.mu
// (write) and calls it only on a full stripe, so every slot holds a page.
// Pin counts cannot rise while the write lock is held (pinning needs at least
// the read lock), so a zero-pin victim stays evictable through the
// write-back.
//
// Victim selection scans the stripe's frame table — O(stripe capacity), one
// pass over contiguous headers — instead of keeping the frames in LRU order.
// That is the deliberate price of the hit fast path: an ordered list would
// need the write lock on every hit to relink, which is exactly the
// serialization the stamp design removes, while the scan runs only on
// evictions, which accompany a disk access anyway and are bounded by the
// stripe (not pool) capacity. Stamps are unique within a stripe, so the
// victim is the exact LRU one.
func (b *BufferPool) evictOne(s *poolStripe) (bool, error) {
	victim, oldest := -1, uint64(0)
	for i := range s.table {
		f := &s.table[i]
		if f.pins.Load() != 0 {
			continue
		}
		if st := f.stamp.Load(); victim < 0 || st < oldest {
			victim, oldest = i, st
		}
	}
	if victim < 0 {
		return false, nil
	}
	if f := &s.table[victim]; f.dirty.Load() {
		if err := b.writeBack(f); err != nil {
			return false, err
		}
		b.writes.Add(1)
	}
	s.release(int32(victim), b.mem != nil)
	return true, nil
}

// writeBack stores a dirty frame's page. On the shared path the bytes are
// already the store's, so it only checks that the page still holds them.
func (b *BufferPool) writeBack(f *frame) error {
	if b.mem != nil {
		return b.mem.holds(f.id, f.data)
	}
	return b.disk.WritePage(f.id, f.data)
}

// makeRoom takes an empty slot of the stripe, evicting a frame when none is
// free. On a stripe full of pinned frames it waits for an unpin and returns
// -1: the write lock was released meanwhile, so the caller re-checks the
// table and calls again. Caller holds s.mu (write).
func (b *BufferPool) makeRoom(s *poolStripe) (int32, error) {
	if len(s.free) == 0 {
		evicted, err := b.evictOne(s)
		if err != nil {
			return -1, err
		}
		if !evicted {
			s.waiters.Add(1)
			s.cond.Wait()
			s.waiters.Add(-1)
			return -1, nil
		}
	}
	n := len(s.free) - 1
	slot := s.free[n]
	s.free = s.free[:n]
	return slot, nil
}

// install puts page id into the empty slot and stamps it as the stripe's
// most recent access. img is the store's image of the page on the shared
// path; on the copying path (img nil) the slot's own image is allocated at
// its first use. The frame comes back unpinned and clean, with the image's
// old bytes.
func (s *poolStripe) install(slot int32, id PageID, img *[PageSize]byte) *frame {
	f := &s.table[slot]
	if img != nil {
		f.data = img
	} else if f.data == nil {
		f.data = new([PageSize]byte)
	}
	f.id = id
	f.stamp.Store(s.clock.Add(1))
	s.frames[id] = slot
	return f
}

// release empties a slot whose page left the stripe. On the shared path
// (dropImage) the slot also drops its pointer to the store's image, so an
// empty slot never keeps a freed page's image alive. Caller holds s.mu
// (write).
func (s *poolStripe) release(slot int32, dropImage bool) {
	f := &s.table[slot]
	delete(s.frames, f.id)
	f.id = NilPage
	if dropImage {
		f.data = nil
	}
	f.dirty.Store(false)
	s.free = append(s.free, slot)
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
	if slot, ok := s.frames[id]; ok {
		f := &s.table[slot]
		f.pins.Add(1)
		f.stamp.Store(s.clock.Add(1))
		s.mu.RUnlock()
		s.hits.Add(1)
		return f, nil
	}
	s.mu.RUnlock()

	s.mu.Lock()
	slot := int32(-1)
	for slot < 0 {
		if hit, ok := s.frames[id]; ok {
			f := &s.table[hit]
			f.pins.Add(1)
			f.stamp.Store(s.clock.Add(1))
			s.mu.Unlock()
			s.hits.Add(1)
			return f, nil
		}
		var err error
		if slot, err = b.makeRoom(s); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	var f *frame
	var err error
	if b.mem != nil {
		var img *[PageSize]byte
		if img, err = b.mem.image(id); err == nil {
			f = s.install(slot, id, img)
		}
	} else {
		f = s.install(slot, id, nil) // ReadPage overwrites all of the image
		err = b.disk.ReadPage(id, f.data)
	}
	if err != nil {
		s.release(slot, b.mem != nil)
		s.mu.Unlock()
		return nil, err
	}
	f.pins.Store(1)
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
// have no on-disk image worth reading); on the shared path the frame is the
// store's fresh image. Like pin, it waits out a stripe full of pinned
// frames. If making room fails, the page is released on the disk again.
func (b *BufferPool) Allocate() (PageID, error) {
	var id PageID
	var img *[PageSize]byte
	var err error
	if b.mem != nil {
		id, img, err = b.mem.allocate()
	} else {
		id, err = b.disk.Allocate()
	}
	if err != nil {
		return NilPage, err
	}
	s := b.stripeFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := int32(-1)
	for slot < 0 {
		if slot, err = b.makeRoom(s); err != nil {
			if ferr := b.disk.Free(id); ferr != nil {
				err = errors.Join(err, ferr)
			}
			return NilPage, err
		}
	}
	f := s.install(slot, id, img)
	if img == nil {
		*f.data = [PageSize]byte{}
	}
	f.dirty.Store(true)
	s.owned[id] = struct{}{}
	return id, nil
}

// Free drops the page from the pool (without write-back) and releases it on
// disk. The page must not be pinned.
func (b *BufferPool) Free(id PageID) error {
	s := b.stripeFor(id)
	s.mu.Lock()
	if slot, ok := s.frames[id]; ok {
		if s.table[slot].pins.Load() > 0 {
			s.mu.Unlock()
			return fmt.Errorf("storage: freeing pinned page %d", id)
		}
		s.release(slot, b.mem != nil)
	}
	delete(s.owned, id)
	s.mu.Unlock()
	s.cond.Broadcast() // a frame left: a waiting fetch may now have room
	return b.disk.Free(id)
}

// Retire permanently releases the pool: every cached frame is dropped
// without write-back (and its page image with it) and every page the pool
// ever allocated (and not since freed) is released on the disk. This is for
// pools whose whole index structure is being abandoned — a replaced
// partition epoch, a failed swap's half-built one — so repeated rebuilds do
// not accumulate dead pages and cached frames forever. The caller must
// guarantee no index still uses the pool; the pool must not be used
// afterwards.
func (b *BufferPool) Retire() {
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		clear(s.frames)
		for j := range s.table {
			f := &s.table[j]
			f.id, f.data = NilPage, nil
			f.dirty.Store(false)
		}
		s.free = emptySlots(s.free, len(s.table))
		for id := range s.owned {
			_ = b.disk.Free(id) // best-effort: the structure is abandoned
		}
		clear(s.owned)
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

// FlushAll writes back every dirty frame (kept resident), stripe by stripe
// in slot order. Used by tests and when snapshotting space usage.
func (b *BufferPool) FlushAll() error {
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		for j := range s.table {
			f := &s.table[j]
			if f.id == NilPage || !f.dirty.Load() {
				continue
			}
			if err := b.writeBack(f); err != nil {
				s.mu.Unlock()
				return err
			}
			b.writes.Add(1)
			f.dirty.Store(false)
		}
		s.mu.Unlock()
	}
	return nil
}
