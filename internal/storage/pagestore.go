package storage

import (
	"errors"
	"sync"
	"sync/atomic"
)

// PageStore is the backend contract behind every BufferPool: fixed 4 KB
// pages addressed by PageID, an allocator with a free list (freed ids are
// recycled), raw page I/O, and a write barrier. Two implementations exist:
// MemStore (the paper's simulated disk, default) and FileStore (a real
// single-file scratch store used by the Store's WithDataDir mode).
//
// All methods are safe for concurrent use. The "query I/O" the paper plots
// is the pool's misses (BufferPool.Stats), one ReadPage each.
type PageStore interface {
	// Allocate reserves a page id (recycling freed ids) with zeroed contents.
	Allocate() (PageID, error)
	// Free releases a page back to the free list. Freeing an unallocated or
	// already-free page is an error.
	Free(id PageID) error
	// ReadPage copies the page image into dst.
	ReadPage(id PageID, dst *[PageSize]byte) error
	// WritePage stores the page image.
	WritePage(id PageID, src *[PageSize]byte) error
	// Sync is a write barrier: on return, every page written before the call
	// has reached the disk (no-op for MemStore). It makes nothing recoverable
	// — no backend is reopened — and exists for callers that measure or
	// script an fsync.
	Sync() error
	// NumPages returns the number of live (allocated, not freed) pages.
	NumPages() int
	// Close releases any underlying resources. The store must not be used
	// afterwards.
	Close() error
}

var (
	_ PageStore = (*MemStore)(nil)
	_ PageStore = (*FileStore)(nil)
)

// ErrInjectedCrash is returned by every durable-storage operation after a
// FaultInjector has fired: the process is considered dead from that point,
// exactly as if kill -9 had landed between two syscalls.
var ErrInjectedCrash = errors.New("storage: injected crash")

// FaultInjector simulates storage faults for the recovery tests. Its
// original model is kill -9 at a chosen durability barrier: writes and
// fsyncs call its hooks; at the Nth sync point the fsync itself fails and
// every subsequent write or sync fails too, so everything written before the
// kill survives (it was in the OS buffer cache) while nothing after it can
// happen — the recovered state must land between the last acknowledged
// operation and the last issued one.
//
// Beyond fail-stop, an injector may carry a FaultScript (NewScriptedInjector
// / NewSeededInjector, fault.go) that injects permanent EIO, torn
// page writes, bit flips, fsync failures, and latency spikes at every
// FileStore/WAL I/O site.
//
// A nil *FaultInjector is valid and never fires, so production paths can
// call the hooks unconditionally.
type FaultInjector struct {
	killAt int64 // 1-based sync point that dies; 0 = never
	syncs  atomic.Int64
	dead   atomic.Bool

	// Scriptable fault plane (fault.go). script is set at construction and
	// never mutated; counts holds per-op attempt sequence numbers; injected
	// counts non-latency faults delivered. permPages/permOps latch targets
	// hit by a permanent fault so every later attempt fails too.
	script    FaultScript
	counts    [nFaultOps]atomic.Int64
	injected  atomic.Int64
	permMu    sync.Mutex
	permPages map[PageID]struct{}
	permOps   [nFaultOps]bool
}

// NewFaultInjector returns an injector that kills the process model at the
// killAtSync-th sync point (1-based). killAtSync <= 0 never fires.
func NewFaultInjector(killAtSync int64) *FaultInjector {
	return &FaultInjector{killAt: killAtSync}
}

// BeforeWrite gates a write syscall: it fails iff the injector already fired.
func (fi *FaultInjector) BeforeWrite() error {
	if fi == nil || !fi.dead.Load() {
		return nil
	}
	return ErrInjectedCrash
}

// BeforeSync gates an fsync at the checkpoint writer. It counts the sync
// point and, at the configured kill point, marks the injector dead and fails
// this fsync too. It is SyncPoint(OpCheckpointSync); the FileStore and WAL
// call SyncPoint with their own op so scripted sync faults can tell the
// sites apart while the legacy kill counter stays one global sequence.
func (fi *FaultInjector) BeforeSync() error {
	return fi.SyncPoint(OpCheckpointSync)
}

// SyncPoints returns how many sync points have been observed so far.
func (fi *FaultInjector) SyncPoints() int64 {
	if fi == nil {
		return 0
	}
	return fi.syncs.Load()
}
