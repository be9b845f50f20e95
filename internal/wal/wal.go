// Package wal is the write-ahead log behind the Store's durable mode: an
// append-only, segmented log of logical records (reports, removes,
// subscription changes, partition swaps) with CRC-framed entries, group
// commit, and checkpoint-driven truncation.
//
// The log is redo-only and logical: recovery replays records through the
// Store's normal write paths rather than reapplying page images, so the
// index structures are rebuilt rather than trusted. Positions are LSNs —
// global byte offsets over the whole log history — and segment files are
// named by the LSN of their first byte, so a record's position never changes
// when older segments are reclaimed.
//
// Commit implements group commit: the caller that wins the flush lock
// fsyncs everything appended so far and every waiter whose record the flush
// covered returns without issuing its own fsync ("followers ride the
// leader's fsync"). A GroupCommit window makes the leader dwell briefly
// before flushing so concurrent appenders can pile on; SyncNone acknowledges
// without any fsync and trades the WAL tail for throughput.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Type tags a logical record.
type Type uint8

// Logical record types. Values are persisted in the log; do not renumber.
const (
	TypeReport        Type = 1
	TypeReportBatch   Type = 2
	TypeRemove        Type = 3
	TypeSubscribe     Type = 4
	TypeUnsubscribe   Type = 5
	TypePartitionSwap Type = 6
	TypeRefresh       Type = 7
)

// Frame layout: [length u32][type u8][crc u32][payload]. The CRC covers the
// type byte and the payload, so a torn or misframed tail fails verification.
const frameHeader = 9

// maxRecord bounds a single record so a corrupt length field cannot make
// replay allocate unbounded memory.
const maxRecord = 64 << 20

// DefaultSegmentBytes is the rotation threshold for log segments.
const DefaultSegmentBytes = 4 << 20

// SyncMode selects the durability contract of Commit.
type SyncMode int

const (
	// SyncAlways fsyncs before every Commit returns.
	SyncAlways SyncMode = iota
	// SyncGroup fsyncs before Commit returns, but the flush leader dwells
	// for the configured window first so concurrent commits share one fsync.
	SyncGroup
	// SyncNone never fsyncs on Commit; the OS flushes when it pleases.
	SyncNone
)

// SyncPolicy is a SyncMode plus the group-commit dwell window.
type SyncPolicy struct {
	Mode   SyncMode
	Window time.Duration
}

// Always returns the fsync-per-commit policy.
func Always() SyncPolicy { return SyncPolicy{Mode: SyncAlways} }

// GroupCommit returns a group-commit policy whose flush leader waits up to
// window for followers before fsyncing. A zero window still group-commits:
// followers that arrive during the leader's fsync ride the next flush.
func GroupCommit(window time.Duration) SyncPolicy {
	return SyncPolicy{Mode: SyncGroup, Window: window}
}

// None returns the no-fsync policy.
func None() SyncPolicy { return SyncPolicy{Mode: SyncNone} }

// Options configures Open.
type Options struct {
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// Policy is the Commit durability contract (default Always).
	Policy SyncPolicy
	// Injector, when non-nil, injects crashes and media faults (see
	// storage.FaultInjector).
	Injector *storage.FaultInjector
}

// ErrCorrupt marks a mid-log CRC mismatch: unlike a benign torn tail (bytes
// past the last fsync of a crashed process, expected and safely dropped),
// valid records are known to exist past the bad frame, so dropping the rest
// of the log silently would lose acknowledged history. Callers degrade the
// store instead.
var ErrCorrupt = errors.New("wal: corrupt record")

// CorruptError identifies where in the log corruption was found. It unwraps
// to ErrCorrupt.
type CorruptError struct {
	Path string
	LSN  uint64
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record in %s at LSN %d", e.Path, e.LSN)
}

// Unwrap ties the error to the ErrCorrupt sentinel.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// WAL is an append-only segmented log. Append and Commit are safe for
// concurrent use; Replay and TruncateBefore are meant for the single-
// threaded open/checkpoint paths.
type WAL struct {
	dir string
	opt Options

	mu       sync.Mutex // append state: active segment + appended LSN
	f        *os.File
	segStart uint64
	appended uint64
	failed   error      // the write error that poisoned the active segment, if any
	sealed   []*os.File // rotated-out, not yet fsynced files (SyncNone only)

	flushMu sync.Mutex // the group-commit leader lock
	syncMu  sync.Mutex // serializes fsync with segment close (rotation)
	segMu   sync.Mutex // serializes segment removal with Verify's reads
	durable atomic.Uint64
	// syncFailed holds the first fsync failure. After it no fsync is issued
	// and nothing past durable is acknowledged: a failed writeback may leave
	// the kernel's dirty pages marked clean, so a later fsync can succeed
	// without the records that were in flight.
	syncFailed atomic.Pointer[error]

	corrupt *CorruptError // mid-log corruption found at Open, if any
}

// Open creates dir if needed, scans any existing segments to find the end of
// the valid log, and starts a fresh active segment there. Records already on
// disk are untouched — call Replay to read them back.
func Open(dir string, opt Options) (*WAL, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opt: opt}
	if n := len(segs); n > 0 {
		last := segs[n-1]
		valid, resync, err := scanTail(last.path)
		if err != nil {
			return nil, err
		}
		if resync {
			// Valid frames exist past the invalid one: this is mid-log
			// corruption, not the benign torn tail of a crash. Open still
			// succeeds with the valid prefix — the records past the bad frame
			// cannot be applied consistently — but the loss is never silent:
			// CorruptTail reports it so the store can degrade.
			w.corrupt = &CorruptError{Path: last.path, LSN: last.start + valid}
		}
		w.appended = last.start + valid
	}
	w.durable.Store(w.appended)
	if err := w.openSegment(w.appended); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment starts the active segment at LSN start. An existing file with
// that name holds only bytes that failed CRC validation (a torn tail from a
// previous generation), so it is safe to clear.
func (w *WAL) openSegment(start uint64) error {
	f, err := os.OpenFile(segmentPath(w.dir, start), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	// Make the directory entry durable so a crash right after segment
	// creation cannot orphan records appended to a file that is not yet
	// linked. Raw (not injector-gated): this runs on Open/rotation control
	// paths where an injected kill would mean "store failed to open", not
	// "crash mid-workload".
	if err := storage.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segStart = start
	return nil
}

// CorruptTail reports mid-log corruption found while scanning the last
// segment at Open: valid frames existed past a CRC-invalid one. A benign
// torn tail (no valid data after the tear) returns nil.
func (w *WAL) CorruptTail() error {
	if w.corrupt == nil {
		return nil
	}
	return w.corrupt
}

// maxPooledBuf caps how large a scratch buffer the frame/encode pools will
// retain; a rare oversized record allocates once and is dropped afterwards,
// so a single huge batch cannot pin megabytes in every pool shard.
const maxPooledBuf = 1 << 20

// framePool recycles Append's frame scratch so the steady-state durable
// write path frames records without a per-record allocation.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// bufPool recycles record-encode buffers for callers (see GetBuf/PutBuf).
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 256); return &b },
}

// GetBuf hands out a pooled encode buffer (length 0). Encode a record
// payload into it with the Append* codecs, pass the result to WAL.Append —
// which copies the payload into its own frame before returning — and give
// the buffer back with PutBuf.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns an encode buffer obtained from GetBuf to the pool.
func PutBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Append frames and writes one record, returning the LSN just past it: the
// record is durable once DurableLSN() >= lsn. Append alone does not fsync —
// pair it with Commit. The payload is copied into the frame before Append
// returns, so callers may reuse (or pool) the payload buffer immediately.
func (w *WAL) Append(t Type, payload []byte) (lsn uint64, err error) {
	// Injected append faults fire before any byte reaches the file, so they
	// leave the segment intact; a real partial write below poisons it.
	if err := w.opt.Injector.WALAppend(); err != nil {
		return 0, err
	}
	fp := framePool.Get().(*[]byte)
	frame := *fp
	need := frameHeader + len(payload)
	if cap(frame) < need {
		frame = make([]byte, need)
	} else {
		frame = frame[:need]
	}
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	frame[4] = byte(t)
	crc := crc32.Update(0, crc32.IEEETable, frame[4:5])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(frame[5:], crc)
	copy(frame[frameHeader:], payload)

	w.mu.Lock()
	defer func() {
		w.mu.Unlock()
		if cap(frame) <= maxPooledBuf {
			*fp = frame[:0]
			framePool.Put(fp)
		}
	}()
	if w.f == nil {
		return 0, fmt.Errorf("wal: closed")
	}
	if w.failed != nil {
		// Wrapping the cause lets a writer that raced the failing one classify
		// the error the same way (an injected crash stays an injected crash).
		return 0, fmt.Errorf("wal: log poisoned by earlier write failure: %w", w.failed)
	}
	if _, err := w.f.Write(frame); err != nil {
		// A partial frame may be on disk; nothing may be appended after it.
		w.failed = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.appended += uint64(len(frame))
	lsn = w.appended
	if w.appended-w.segStart >= uint64(w.opt.SegmentBytes) {
		if err := w.rotateLocked(); err != nil {
			w.failed = err
			return 0, err
		}
	}
	return lsn, nil
}

// rotateLocked seals the active segment and opens the next one. Under a
// syncing policy the sealed segment is fsynced and closed (a rotation is a
// sync point), so only the single active segment can ever have a torn tail;
// under SyncNone the file is parked on w.sealed for the next Sync/Close to
// flush. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if w.opt.Policy.Mode == SyncNone {
		w.sealed = append(w.sealed, w.f)
		return w.openSegment(w.appended)
	}
	w.syncMu.Lock()
	err := w.fsync(w.f)
	if err == nil {
		w.durable.Store(w.appended)
		if cerr := w.f.Close(); cerr != nil {
			err = fmt.Errorf("wal: seal segment: %w", cerr)
		}
	}
	w.syncMu.Unlock()
	if err != nil {
		return err
	}
	return w.openSegment(w.appended)
}

// fsync runs the injector sync-point hook and fsyncs the given file. The
// first failure poisons the log: it is kept in syncFailed, and every later
// call returns an error wrapping it without issuing an fsync.
func (w *WAL) fsync(f *os.File) error {
	if err := w.syncPoisoned(); err != nil {
		return err
	}
	err := w.opt.Injector.SyncPoint(storage.OpWALSync)
	if err == nil {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("wal: fsync: %w", err)
		}
	}
	if err != nil {
		first := err // its own variable: only a failed fsync allocates
		w.syncFailed.CompareAndSwap(nil, &first)
	}
	return err
}

// syncPoisoned returns an error wrapping the first fsync failure, or nil
// when no fsync has failed.
func (w *WAL) syncPoisoned() error {
	if first := w.syncFailed.Load(); first != nil {
		return fmt.Errorf("wal: log poisoned by earlier fsync failure: %w", *first)
	}
	return nil
}

// Commit blocks until the record ending at lsn is durable under the
// configured policy. Concurrent callers elect a flush leader; everyone whose
// record the leader's fsync covered returns without syncing (group commit).
// After a failed fsync, Commit of a record that no earlier fsync covered
// returns an error wrapping that failure.
func (w *WAL) Commit(lsn uint64) error {
	if w.opt.Policy.Mode == SyncNone {
		return nil
	}
	for {
		if w.durable.Load() >= lsn {
			return nil
		}
		w.flushMu.Lock()
		if w.durable.Load() >= lsn {
			w.flushMu.Unlock()
			return nil
		}
		if w.opt.Policy.Mode == SyncGroup && w.opt.Policy.Window > 0 {
			time.Sleep(w.opt.Policy.Window)
		}
		w.mu.Lock()
		target := w.appended
		f := w.f
		w.mu.Unlock()
		if f == nil {
			w.flushMu.Unlock()
			return fmt.Errorf("wal: closed")
		}
		// syncMu keeps rotation from closing f out from under the fsync: if
		// a rotation slipped in after the capture it already advanced
		// durable past target (it fsyncs before closing), and the re-check
		// skips the stale file.
		w.syncMu.Lock()
		var err error
		if w.durable.Load() < target {
			if err = w.fsync(f); err == nil {
				w.durable.Store(target)
			}
		}
		w.syncMu.Unlock()
		w.flushMu.Unlock()
		if err != nil {
			return err
		}
	}
}

// Sync forces everything appended so far durable regardless of policy,
// including segments rotated out under SyncNone. After a failed fsync it
// returns an error wrapping that failure, and parked segments stay parked.
func (w *WAL) Sync() error {
	if err := w.syncPoisoned(); err != nil {
		return err
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	target := w.appended
	f := w.f
	sealed := w.sealed
	w.sealed = nil
	w.mu.Unlock()
	if f == nil {
		return fmt.Errorf("wal: closed")
	}
	// The sealed files are this call's alone until it parks them again: what
	// it did not fsync goes back ahead of any sealed since, so the next Sync
	// (or Close) still reaches it.
	for i, s := range sealed {
		err := w.fsync(s)
		if err == nil {
			i++ // s is synced: only the files after it still need a Sync
			err = s.Close()
		}
		if err != nil {
			w.mu.Lock()
			w.sealed = append(sealed[i:], w.sealed...)
			w.mu.Unlock()
			return err
		}
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.durable.Load() < target {
		if err := w.fsync(f); err != nil {
			return err
		}
		w.durable.Store(target)
	}
	return nil
}

// AppendedLSN returns the LSN just past the last appended record.
func (w *WAL) AppendedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// DurableLSN returns the LSN up to which the log is known stable.
func (w *WAL) DurableLSN() uint64 { return w.durable.Load() }

// Segments returns the number of segment files currently on disk.
func (w *WAL) Segments() int {
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0
	}
	return len(segs)
}

// Close closes the active segment without forcing a flush (call Sync first
// for a clean shutdown).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	for _, s := range w.sealed {
		_ = s.Close()
	}
	w.sealed = nil
	err := w.f.Close()
	w.f = nil
	return err
}

// TruncateBefore removes segments whose every byte lies below lsn — called
// after a checkpoint has made those records redundant. The active segment is
// never removed.
func (w *WAL) TruncateBefore(lsn uint64) error {
	w.segMu.Lock()
	defer w.segMu.Unlock()
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	w.mu.Lock()
	active := w.segStart
	w.mu.Unlock()
	for i, s := range segs {
		var end uint64
		if i+1 < len(segs) {
			end = segs[i+1].start
		} else {
			break // last segment is (or trails) the active one
		}
		if s.start == active || end > lsn {
			continue
		}
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return nil
}

// Replay streams every record whose end LSN is strictly greater than from,
// in log order, to fn. Within a segment, scanning stops at the first frame
// that fails validation. Whether that stop is an error depends on what is
// known to follow: a segment with a successor must scan cleanly through to
// the successor's start LSN — stopping short means a mid-log CRC mismatch
// over acknowledged records, reported as a CorruptError (wrapping
// ErrCorrupt) so the caller can degrade rather than silently lose the rest
// of the log. The last segment has no successor, so its stop is the benign
// torn tail of a crashed generation and replay ends cleanly.
func (w *WAL) Replay(from uint64, fn func(lsn uint64, t Type, payload []byte) error) error {
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for i, s := range segs {
		var expectedEnd uint64
		if i+1 < len(segs) {
			expectedEnd = segs[i+1].start - s.start
		}
		if err := replaySegment(s, from, expectedEnd, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment streams one segment's valid records. expectedEnd, when
// non-zero, is the byte length the valid scan must reach (the next
// segment's start); stopping short is mid-log corruption.
func replaySegment(s segment, from, expectedEnd uint64, fn func(lsn uint64, t Type, payload []byte) error) error {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return fmt.Errorf("wal: replay %s: %w", s.path, err)
	}
	for pos := 0; ; {
		t, payload, ok := frameAt(data, pos)
		if !ok {
			// A clean end, a torn tail or corruption: short of the
			// successor's start, it is corruption.
			if expectedEnd != 0 && uint64(pos) < expectedEnd {
				return &CorruptError{Path: s.path, LSN: s.start + uint64(pos)}
			}
			return nil
		}
		pos += frameHeader + len(payload)
		end := s.start + uint64(pos)
		if end > from {
			if err := fn(end, t, payload); err != nil {
				return err
			}
		}
	}
}

// Verify checks the integrity of every sealed segment that has a successor:
// its CRC-valid prefix must reach the successor's start. The active segment
// (and a trailing sealed one with no successor) is skipped — its tail is
// legitimately in flux. This is the scrubber's WAL primitive; it holds off
// TruncateBefore, so a segment it listed is still there when it reads it.
func (w *WAL) Verify() error {
	w.segMu.Lock()
	defer w.segMu.Unlock()
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	w.mu.Lock()
	active := w.segStart
	w.mu.Unlock()
	for i, s := range segs {
		if s.start >= active || i+1 >= len(segs) {
			break
		}
		expectedEnd := segs[i+1].start - s.start
		valid, err := validBytes(s.path)
		if err != nil {
			return err
		}
		if valid < expectedEnd {
			return &CorruptError{Path: s.path, LSN: s.start + valid}
		}
	}
	return nil
}

// segment is one on-disk log file, named by the LSN of its first byte.
type segment struct {
	start uint64
	path  string
}

func segmentPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", start))
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		start, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{start: start, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// resyncWindow bounds how far past an invalid frame scanTail searches for a
// later valid frame when classifying a tear.
const resyncWindow = 1 << 20

// scanTail measures the CRC-valid prefix of a segment and classifies what
// follows it: resync is true when a later valid frame exists past the
// invalid point, which means the tear is mid-log corruption of acknowledged
// records rather than the benign torn tail of a crash (where nothing valid
// can follow the last partial write).
func scanTail(path string) (valid uint64, resync bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	valid = validPrefix(data)
	return valid, resyncAt(data, int(valid)) >= 0, nil
}

// resyncAt returns the offset of the first whole, CRC-valid frame of a known
// record type that starts past the invalid frame at pos and within
// resyncWindow of it, or -1 when there is none.
func resyncAt(data []byte, pos int) int {
	limit := min(len(data), pos+resyncWindow)
	for off := pos + 1; off+frameHeader <= limit; off++ {
		if t := data[off+4]; t < byte(TypeReport) || t > byte(TypeRefresh) {
			continue
		}
		if _, _, ok := frameAt(data, off); ok {
			return off
		}
	}
	return -1
}

// validBytes measures the CRC-valid prefix of one segment file.
func validBytes(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	return validPrefix(data), nil
}

// validPrefix measures the CRC-valid prefix of a segment image.
func validPrefix(data []byte) uint64 {
	pos := 0
	for {
		_, payload, ok := frameAt(data, pos)
		if !ok {
			return uint64(pos)
		}
		pos += frameHeader + len(payload)
	}
}

// frameAt decodes the frame starting at data[pos]. ok is false unless the
// image holds a whole frame there — header, a length within maxRecord, and
// the payload — whose CRC matches: a torn header, a torn or garbage length
// and a CRC mismatch all read as no frame.
func frameAt(data []byte, pos int) (t Type, payload []byte, ok bool) {
	if pos+frameHeader > len(data) {
		return 0, nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[pos:]))
	if n > maxRecord || pos+frameHeader+n > len(data) {
		return 0, nil, false
	}
	payload = data[pos+frameHeader : pos+frameHeader+n]
	crc := crc32.Update(0, crc32.IEEETable, data[pos+4:pos+5])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != binary.LittleEndian.Uint32(data[pos+5:]) {
		return 0, nil, false
	}
	return Type(data[pos+4]), payload, true
}
