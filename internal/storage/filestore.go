package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
)

// FileStore file layout. Each logical 4 KB page occupies one slot of
// slotSize bytes: the page image followed by an integrity trailer holding a
// CRC-32C over (page id || page data). Binding the id into the checksum
// catches misdirected writes (a valid page persisted at the wrong offset) as
// well as torn writes and bit rot. An all-zero slot is also valid — it is
// the state of a freshly extended or just-recycled page — so allocation
// never has to write trailers. Slot 0 is never a page (id 0 is NilPage) and
// holds nothing: which ids exist and which are free is in-memory state, gone
// with the process like every page image in the file.
const (
	pageTrailerLen = 8 // [4]CRC-32C(id || data)  [4]reserved (zero)
	slotSize       = PageSize + pageTrailerLen
)

// castagnoli is the CRC-32C polynomial table used for page trailers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptPage marks a page whose checksum did not match its contents:
// a torn write, bit rot, or a misdirected write. Checksum failures are
// detected on read — the corrupt image is never decoded — and every read of
// the slot fails until a full rewrite repairs it.
var ErrCorruptPage = errors.New("storage: page checksum mismatch")

// CorruptPageError identifies which page of which store failed its checksum.
// It unwraps to ErrCorruptPage.
type CorruptPageError struct {
	Path string
	ID   PageID
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("storage: %s: page %d checksum mismatch", e.Path, e.ID)
}

// Unwrap ties the error to the ErrCorruptPage sentinel.
func (e *CorruptPageError) Unwrap() error { return ErrCorruptPage }

// slotPool recycles slot-sized scratch buffers for the read/write paths.
var slotPool = sync.Pool{
	New: func() any { return new([slotSize]byte) },
}

// pageCRC computes the trailer checksum: CRC-32C over the 8-byte
// little-endian page id followed by the page image.
func pageCRC(id PageID, data []byte) uint32 {
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], uint64(id))
	crc := crc32.Update(0, castagnoli, idb[:])
	return crc32.Update(crc, castagnoli, data)
}

// FileStore is a PageStore over a single scratch file: real disk I/O for one
// process lifetime, and nothing a later process reads. Page id N lives at
// byte offset N*slotSize, reads and writes are slot-aligned pread/pwrite on a
// shared descriptor (no lock on the data path), every data slot carries a
// CRC-32C trailer verified on read, and the allocator — high-water mark and
// free stack — lives in memory only. The file always starts empty
// (OpenFileStore) and is never reopened.
//
// A page that fails its checksum fails every read with CorruptPageError
// until a successful full-page write repairs the slot. Nothing sweeps the
// file for latent corruption: FileStore carries no redo information and no
// restart format — the Store's durable mode keeps object state in its
// checkpoint chain and write-ahead log, rebuilds every index page from them
// at open, and so repairs a corrupt page by a restart.
type FileStore struct {
	f      *os.File
	path   string
	fi     *FaultInjector
	closed atomic.Bool

	mu      sync.Mutex // allocator state
	nextID  uint64     // high-water mark: ids 1..nextID exist
	free    []PageID   // recycle stack
	freeSet map[PageID]struct{}
}

// FileStoreOptions configures OpenFileStore.
type FileStoreOptions struct {
	// Truncate discards an existing file (the Store's durable mode does this
	// at every open: pages are rebuilt from checkpoint + WAL replay). Without
	// it, an existing non-empty file is an error rather than silently lost.
	Truncate bool
	// Injector, when non-nil, injects crashes and media faults (fault.go).
	Injector *FaultInjector
}

// errClosed builds the after-Close error for op; it unwraps to os.ErrClosed.
func (fs *FileStore) errClosed(op string) error {
	return fmt.Errorf("storage: %s on closed store %s: %w", op, fs.path, os.ErrClosed)
}

// OpenFileStore creates the single-file page store at path, empty. Page
// files are scratch and are not reopened: Truncate discards an existing file,
// and without it an existing non-empty file is an error. Nothing is fsynced —
// not the file, not its directory entry — because nothing here has to survive
// a crash.
func OpenFileStore(path string, opt FileStoreOptions) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err == nil && st.Size() != 0 && !opt.Truncate {
		err = fmt.Errorf("file exists: page files are scratch and are not reopened")
	}
	if err == nil {
		err = f.Truncate(0)
	}
	if err == nil {
		err = f.Truncate(slotSize) // slot 0 is never a page: page 1 starts at slotSize
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: init %s: %w", path, err)
	}
	return &FileStore{
		f:       f,
		path:    path,
		fi:      opt.Injector,
		freeSet: make(map[PageID]struct{}),
	}, nil
}

// checkLocked validates that id is a live page. Caller holds fs.mu.
func (fs *FileStore) checkLocked(id PageID, op string) error {
	if id == NilPage || uint64(id) > fs.nextID {
		return fmt.Errorf("storage: %s of unallocated page %d", op, id)
	}
	if _, ok := fs.freeSet[id]; ok {
		return fmt.Errorf("storage: %s of freed page %d", op, id)
	}
	return nil
}

// Allocate reserves a page id, recycling the most recently freed id if any;
// fresh pages extend the file (zero-filled by the filesystem, which is a
// valid zero page under the all-zero-slot rule).
func (fs *FileStore) Allocate() (PageID, error) {
	if fs.closed.Load() {
		return NilPage, fs.errClosed("allocate")
	}
	if err := fs.fi.BeforeWrite(); err != nil {
		return NilPage, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n := len(fs.free); n > 0 {
		id := fs.free[n-1]
		fs.free = fs.free[:n-1]
		delete(fs.freeSet, id)
		// The recycled slot holds a stale image and its stale trailer;
		// contract says zeroed contents, and a fully zero slot is
		// checksum-valid by the all-zero rule.
		zero := slotPool.Get().(*[slotSize]byte)
		clear(zero[:])
		_, err := fs.f.WriteAt(zero[:], int64(id)*slotSize)
		slotPool.Put(zero)
		if err != nil {
			return NilPage, fmt.Errorf("storage: page clear: %w", err)
		}
		return id, nil
	}
	fs.nextID++
	id := PageID(fs.nextID)
	if err := fs.f.Truncate(int64(fs.nextID+1) * slotSize); err != nil {
		fs.nextID--
		return NilPage, fmt.Errorf("storage: extend: %w", err)
	}
	return id, nil
}

// Free releases a page onto the in-memory free stack; the file is not
// touched (Allocate zeroes the slot when it recycles the id).
func (fs *FileStore) Free(id PageID) error {
	if fs.closed.Load() {
		return fs.errClosed("free")
	}
	if err := fs.fi.BeforeWrite(); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkLocked(id, "free"); err != nil {
		return err
	}
	fs.free = append(fs.free, id)
	fs.freeSet[id] = struct{}{}
	return nil
}

// verifySlot checks a slot image against its trailer; an all-zero slot is a
// valid zero page. slot must be slotSize bytes.
func verifySlot(id PageID, slot []byte) bool {
	want := binary.LittleEndian.Uint32(slot[PageSize:])
	if pageCRC(id, slot[:PageSize]) == want {
		return true
	}
	for _, b := range slot {
		if b != 0 {
			return false
		}
	}
	return true
}

// ReadPage reads the page image with a positioned read (no allocator lock
// held during the transfer) and verifies its checksum before returning it: a
// torn write or bit rot comes back as CorruptPageError, never as decoded
// garbage.
func (fs *FileStore) ReadPage(id PageID, dst *[PageSize]byte) error {
	if fs.closed.Load() {
		return fs.errClosed("read")
	}
	fs.mu.Lock()
	err := fs.checkLocked(id, "read")
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	if err := fs.fi.PageRead(id); err != nil {
		return err
	}
	slot := slotPool.Get().(*[slotSize]byte)
	defer slotPool.Put(slot)
	if _, err := fs.f.ReadAt(slot[:], int64(id)*slotSize); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	if !verifySlot(id, slot[:]) {
		return &CorruptPageError{Path: fs.path, ID: id}
	}
	copy(dst[:], slot[:PageSize])
	return nil
}

// WritePage writes the page image and its checksum trailer with one
// positioned write. A successful full write repairs a corrupt slot. A
// scripted torn-write or bit-flip fault corrupts the persisted image while
// reporting success — exactly how real silent corruption behaves; the
// checksum catches it on the next read.
func (fs *FileStore) WritePage(id PageID, src *[PageSize]byte) error {
	if fs.closed.Load() {
		return fs.errClosed("write")
	}
	kind, err := fs.fi.PageWrite(id)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	err = fs.checkLocked(id, "write")
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	slot := slotPool.Get().(*[slotSize]byte)
	defer slotPool.Put(slot)
	copy(slot[:PageSize], src[:])
	binary.LittleEndian.PutUint32(slot[PageSize:], pageCRC(id, src[:]))
	binary.LittleEndian.PutUint32(slot[PageSize+4:], 0)
	n := int64(slotSize)
	switch kind {
	case FaultTornWrite:
		// Persist only a prefix, as if power failed mid-sector-train.
		n = 1536
	case FaultBitFlip:
		slot[PageSize/2] ^= 0x10
	}
	if _, err := fs.f.WriteAt(slot[:n], int64(id)*slotSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Sync fsyncs the data file: on return every prior WritePage has reached the
// disk. Nothing depends on it for recovery — the file is scratch — but it is
// a real, injector-gated barrier for callers that measure or script one.
func (fs *FileStore) Sync() error {
	if fs.closed.Load() {
		return fs.errClosed("sync")
	}
	if err := fs.fi.SyncPoint(OpPageSync); err != nil {
		return err
	}
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("storage: fsync %s: %w", fs.path, err)
	}
	return nil
}

// Close closes the file without flushing it. Close is idempotent
// and concurrency-safe: the first call does the work, every later call
// returns nil.
func (fs *FileStore) Close() error {
	if !fs.closed.CompareAndSwap(false, true) {
		return nil
	}
	return fs.f.Close()
}

// Path returns the data file path.
func (fs *FileStore) Path() string { return fs.path }

// Injector returns the fault injector wired at open, possibly nil (the
// FaultInjector methods are nil-receiver safe).
func (fs *FileStore) Injector() *FaultInjector { return fs.fi }

// NumPages returns the number of live pages.
func (fs *FileStore) NumPages() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return int(fs.nextID) - len(fs.free)
}
