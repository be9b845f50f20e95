package vpindex

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file is the Store's durable mode (WithDataDir): a group-commit
// write-ahead log of logical records, periodic checkpoints, and crash
// recovery. The division of labor:
//
//   - The WAL (internal/wal) is the only source of crash consistency. Every
//     acknowledged write verb appends one logical record — report, batch,
//     remove, subscribe, unsubscribe, refresh — and waits for durability per
//     the SyncPolicy before returning. Partition transitions append a swap
//     record carrying the completed analysis, so recovery rebuilds the exact
//     partitions without re-running the analyzer.
//   - Checkpoints are incremental: the first one snapshots the full logical
//     state — objects, the partition analysis, the subscription registry with
//     its memberships — and every later one captures only what changed since
//     the previous checkpoint (per-stripe dirty sets of touched ObjectIDs,
//     removed-ID tombstones, and registry/partition dirty flags) into a delta
//     file (ckpt-<gen>.delta) chained to the last full snapshot. Every file
//     uses the same shadow-write protocol — tmp, fsync, atomic rename, dir
//     fsync — so a crash never leaves a torn element. A compaction policy
//     (WithCheckpointCompaction) folds a long chain back into a single full
//     snapshot in the background, off the commit lock.
//   - Recovery loads the full snapshot plus its deltas in generation order and
//     replays the log tail through the normal write paths, so every index
//     invariant, subscription evaluation, and maintenance hook behaves exactly
//     as it did the first time. The page file (FileStore) is rebuilt from
//     logical state at every open: index pages newer than the checkpoint are
//     never trusted.
//
// Consistency between a checkpoint and the log is the commitMu protocol:
// each write verb holds commitMu shared across its {apply, append} pair and
// a checkpoint holds it exclusively while capturing {snapshot, log position},
// so every operation is either fully inside the snapshot or entirely after
// the captured LSN — replay is exactly once. The fsync wait happens after
// the shared lock is released, so a checkpoint never stalls behind group
// commit. That sequence is written once, in logged, and every logging verb
// goes through it; concurrent writers are batched by the log's own group
// commit (wal.Commit elects a flush leader and shares one fsync among the
// committers waiting on it), not by a queue in front of it. Swap records are
// the one exception to the protocol: they are appended without
// commitMu (a swap runs inside maintenance, not inside a verb's pair) and
// tolerate it by being idempotent — replaying a swap against a store already
// on that analysis rebuilds the same partitions.

// durability is the durable-mode state hanging off a Store.
type durability struct {
	dir    string
	wal    *wal.WAL
	fstore *storage.FileStore

	// commitMu orders write-verb {apply, append} pairs against checkpoint
	// {snapshot, LSN} capture; see the file comment.
	commitMu sync.RWMutex

	ckptMu    sync.Mutex // serializes checkpoint writers (incl. compaction)
	ckptEvery int64
	records   atomic.Int64 // records logged, for the auto-checkpoint cadence
	ckptLSN   atomic.Uint64
	ckpts     atomic.Int64

	// Incremental-checkpoint state. ckptGen is the generation of the newest
	// durable chain element (0 = none yet, so the next checkpoint is full);
	// chainLen / chainBytes describe the delta chain behind the last full
	// snapshot and drive the compaction policy; subsDirty / partDirty flag
	// subscription-registry and partition-analysis changes since the last
	// checkpoint (the per-object dirty sets live on the stripes). ckptInFlight
	// dedups the auto-checkpoint cadence's background trigger; compacting
	// dedups background compactions. pauseLast / pauseMax / ckptBytes are the
	// observability counters behind DurabilityStats.
	ckptGen         atomic.Uint64
	chainLen        atomic.Int64
	chainBytes      atomic.Int64
	subsDirty       atomic.Bool
	partDirty       atomic.Bool
	ckptInFlight    atomic.Bool
	compacting      atomic.Bool
	compactions     atomic.Int64
	pauseLast       atomic.Int64
	pauseMax        atomic.Int64
	ckptBytes       atomic.Int64
	compactChainMax int
	compactBytesMax int64

	// recovering suppresses logging and maintenance while Open replays: the
	// replayed verbs run their normal in-memory paths but append nothing.
	recovering atomic.Bool
	replayed   atomic.Int64

	// closed makes Close idempotent and safe for concurrent callers: the
	// CAS winner does the shutdown, everyone else returns nil immediately.
	closed atomic.Bool

	// Background scrubber lifetime (WithScrubEvery) and counters.
	scrubStop    chan struct{}
	scrubDone    chan struct{}
	scrubPasses  atomic.Int64
	scrubCorrupt atomic.Int64
}

const (
	pagesFileName = "pages.dat"
	walDirName    = "wal"
	ckptFileName  = "checkpoint.ckpt"
	ckptTmpName   = "checkpoint.tmp"
)

// deltaFileName names one delta-chain element. The zero-padded generation
// makes lexical directory order equal generation order.
func deltaFileName(gen uint64) string { return fmt.Sprintf("ckpt-%020d.delta", gen) }

// initDurable opens the data directory's page file and log. Called from Open
// before any index is built; recovery itself runs after the manager exists.
func (s *Store) initDurable() error {
	cfg := &s.cfg
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return fmt.Errorf("vpindex: data dir: %w", err)
	}
	fstore, err := storage.OpenFileStore(filepath.Join(cfg.dataDir, pagesFileName), storage.FileStoreOptions{
		// Index pages are rebuilt from checkpoint + log replay at every
		// open; stale images must not survive into the new generation.
		Truncate: true,
		Injector: cfg.injector,
		Mmap:     cfg.mmapOn,
	})
	if err != nil {
		return err
	}
	w, err := wal.Open(filepath.Join(cfg.dataDir, walDirName), wal.Options{
		SegmentBytes: cfg.walSegBytes,
		Policy:       cfg.syncPol,
		Injector:     cfg.injector,
		Retry:        cfg.retry,
	})
	if err != nil {
		fstore.Close()
		return err
	}
	s.disk = fstore
	s.dur = &durability{
		dir: cfg.dataDir, wal: w, fstore: fstore, ckptEvery: cfg.ckptEvery,
		compactChainMax: cfg.compactChain, compactBytesMax: cfg.compactBytes,
	}
	// Index building inside Open must not log; recover() lifts this once
	// the replay is done.
	s.dur.recovering.Store(true)
	return nil
}

// closeFiles releases the durable files after a failed Open; it ignores
// errors (the store never escaped).
func (s *Store) closeFiles() {
	if d := s.dur; d != nil {
		d.wal.Close()
		d.fstore.Close()
	}
}

// Close flushes the log and the page file and closes both, stopping the
// background scrubber first. A non-durable Store has nothing to flush; Close
// is then a no-op. Close is idempotent and safe for concurrent callers —
// exactly one does the shutdown, the rest return nil — and leaves the store
// Failed ("closed"): later writes return ErrFailed, reads keep serving the
// final in-memory state.
func (s *Store) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	if d.scrubStop != nil {
		close(d.scrubStop)
		<-d.scrubDone
	}
	// Drain any in-flight background checkpoint or compaction: both hold
	// ckptMu for their whole file-writing span and re-check closed after
	// acquiring it, so once this barrier passes, nothing touches the data
	// directory again.
	d.ckptMu.Lock()
	d.ckptMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	var first error
	if err := d.wal.Sync(); err != nil {
		first = err
	}
	if err := d.wal.Close(); err != nil && first == nil {
		first = err
	}
	if err := d.fstore.Close(); err != nil && first == nil {
		first = err
	}
	s.failStore("closed", nil)
	return first
}

// logged is the one durable write routine: every logging verb — Report,
// Insert, Update, Remove, ReportBatch, Subscribe, Unsubscribe,
// RefreshSubscriptions — is its in-memory apply run through it. After the
// health gate, under the shared commit lock, apply runs and says whether
// anything landed that the log must carry, alongside the verb's own error: a
// rejected apply logs nothing, a partial failure (ReportBatch,
// RefreshSubscriptions) logs the part that landed. encode appends the record
// payload to dst — a pooled buffer that WAL.Append copies out of before
// returning, so the steady-state write path allocates nothing per record.
// The wait on the sync policy comes after the lock is released. Every error
// that escapes is classified by noteIOFault, and the returned one is the
// append's, else the commit's, else apply's. Non-durable stores run apply
// alone, and so does replay during recovery — without the health gate either:
// a replayed record that degrades the store must not make the records after it
// drop.
func (s *Store) logged(t wal.Type, apply func() (landed bool, err error), encode func(dst []byte) []byte) error {
	d := s.dur
	if d == nil || d.recovering.Load() {
		_, err := apply()
		return err
	}
	if herr := s.writeAllowed(); herr != nil {
		return herr
	}
	var (
		lsn  uint64
		lerr error // the append's error, else the commit's
	)
	d.commitMu.RLock()
	landed, err := apply()
	if landed {
		buf := wal.GetBuf()
		*buf = encode((*buf)[:0])
		lsn, lerr = d.wal.Append(t, *buf)
		wal.PutBuf(buf)
	}
	d.commitMu.RUnlock()
	if landed && lerr == nil {
		lerr = d.wal.Commit(lsn)
	}
	s.noteIOFault(lerr)
	s.noteIOFault(err)
	if landed && lerr == nil {
		d.noteRecords(s, 1)
	}
	return cmp.Or(lerr, err)
}

// applied adapts an all-or-nothing apply to logged: it landed iff it did not
// fail.
func applied(err error) (bool, error) { return err == nil, err }

// logSwap appends a partition-swap record carrying the completed analysis.
// It runs outside commitMu — a swap fires from maintenance, and the
// record is idempotent under replay (see the file comment) — and does not
// wait for the fsync: no caller is blocked on the swap, and the record
// becomes durable with the next committed record, checkpoint, or Close.
func (s *Store) logSwap(an core.Analysis) {
	d := s.dur
	if d == nil || d.recovering.Load() {
		return
	}
	// Mark the partitions dirty before the append: a delta capture that sees
	// the flag clear is guaranteed to have cut before this record's LSN, so
	// the swap is covered by the WAL tail instead; seeing it set merely adds
	// a redundant analysis to the next delta.
	d.partDirty.Store(true)
	if _, err := d.wal.Append(wal.TypePartitionSwap, core.EncodeAnalysis(an)); err != nil {
		s.noteIOFault(err)
	} else {
		d.noteRecords(s, 1)
	}
}

// noteRecords advances the auto-checkpoint cadence by n logged records and
// kicks a background checkpoint each time the running counter crosses a
// multiple of WithCheckpointEvery. Like the repartition cadence, the counter
// is never reset. At most one background checkpoint is in flight at a time:
// without the CAS guard, a write burst would spawn one goroutine per cadence
// trip and they would all queue on ckptMu behind a slow checkpoint, piling up
// without bound and then running back-to-back redundant snapshots. A multiple
// crossed while one is in flight is simply absorbed — the in-flight
// checkpoint already covers those records.
func (d *durability) noteRecords(s *Store, n int64) {
	if d.ckptEvery <= 0 {
		return
	}
	after := d.records.Add(n)
	if after/d.ckptEvery != (after-n)/d.ckptEvery {
		if d.ckptInFlight.CompareAndSwap(false, true) {
			go func() {
				defer d.ckptInFlight.Store(false)
				_ = s.Checkpoint()
			}()
		}
	}
}

// DurabilityStats reports the durable subsystem's counters; ok is false for
// a non-durable Store.
type DurabilityStats struct {
	// WALAppendedLSN / WALDurableLSN are the log's end offset and the prefix
	// known to be on stable storage (equal except under SyncNone or between
	// an append and its group commit).
	WALAppendedLSN uint64
	WALDurableLSN  uint64
	// WALSegments is the number of live log segment files.
	WALSegments int
	// Checkpoints counts completed checkpoints this process; CheckpointLSN
	// is the log position the newest on-disk checkpoint covers.
	Checkpoints   int64
	CheckpointLSN uint64
	// CheckpointPauseNs / CheckpointPauseMaxNs are the commit-lock hold time
	// of the most recent checkpoint capture and the worst one this process —
	// the stop-the-world window writes actually feel, which delta checkpoints
	// shrink from O(dataset) to O(changes). CheckpointBytes is the byte size
	// of the most recently written checkpoint file (full or delta).
	CheckpointPauseNs    int64
	CheckpointPauseMaxNs int64
	CheckpointBytes      int64
	// DeltaChainLen is the number of delta files currently chained behind the
	// last full snapshot; Compactions counts background chain folds.
	DeltaChainLen int64
	Compactions   int64
	// MmapReads reports whether page reads are currently served from a
	// read-only memory mapping of the data file (WithMmap) rather than pread.
	MmapReads bool
	// ReplayedRecords counts log records replayed by this process's Open.
	ReplayedRecords int64
	// Health / HealthReason mirror Store.Health with the reason recorded at
	// the first transition out of Healthy ("" while healthy).
	Health       Health
	HealthReason string
	// QuarantinedPages counts data pages currently fenced off after a
	// checksum failure (a full rewrite repairs and releases a page).
	QuarantinedPages int
	// ScrubPasses / ScrubCorruptions count completed integrity scrub passes
	// (WithScrubEvery, ScrubNow) and the corruptions they surfaced.
	ScrubPasses      int64
	ScrubCorruptions int64
	// IORetries counts transient storage faults absorbed by the retry
	// policy across the live buffer pools and the log — faults the clients
	// never saw.
	IORetries int64
}

// DurabilityStats returns the durable-mode counters, and whether the Store
// is durable at all.
func (s *Store) DurabilityStats() (DurabilityStats, bool) {
	d := s.dur
	if d == nil {
		return DurabilityStats{}, false
	}
	retries := d.wal.Retries()
	for _, p := range s.Pools() {
		retries += p.Retries()
	}
	s.healthMu.Lock()
	reason := s.healthReason
	s.healthMu.Unlock()
	return DurabilityStats{
		WALAppendedLSN:       d.wal.AppendedLSN(),
		WALDurableLSN:        d.wal.DurableLSN(),
		WALSegments:          d.wal.Segments(),
		Checkpoints:          d.ckpts.Load(),
		CheckpointLSN:        d.ckptLSN.Load(),
		CheckpointPauseNs:    d.pauseLast.Load(),
		CheckpointPauseMaxNs: d.pauseMax.Load(),
		CheckpointBytes:      d.ckptBytes.Load(),
		DeltaChainLen:        d.chainLen.Load(),
		Compactions:          d.compactions.Load(),
		MmapReads:            d.fstore.MmapActive(),
		ReplayedRecords:      d.replayed.Load(),
		Health:               s.Health(),
		HealthReason:         reason,
		QuarantinedPages:     d.fstore.Quarantined(),
		ScrubPasses:          d.scrubPasses.Load(),
		ScrubCorruptions:     d.scrubCorrupt.Load(),
		IORetries:            retries,
	}, true
}

// IngestStats held the counters of the write coalescer, which no longer
// exists. The type and the method are kept only for benchmark/trace.go, which
// calls s.IngestStats() and cannot be edited outside a benchmark PR; delete
// both with the replica ladder (ROADMAP item 1).
type IngestStats struct{ CoalescedBatches, CoalescedRecords, FlushBarriers int64 }

// IngestStats always returns (IngestStats{}, false).
func (s *Store) IngestStats() (IngestStats, bool) { return IngestStats{}, false }

// checkpointState is one chain element: a consistent cut of the Store's
// logical state (full snapshot) or of everything that changed since the
// previous element (delta). partitioned doubles as "this element carries an
// analysis to apply": always set for a partitioned full snapshot, set on a
// delta only when the partitions changed since the previous element.
type checkpointState struct {
	gen       uint64 // chain generation; monotonic across fulls and deltas
	parentGen uint64 // generation this delta chains onto (0 for a full)
	delta     bool

	lsn         uint64
	partitioned bool
	analysis    core.Analysis
	objects     []Object
	tombs       []ObjectID // IDs removed since the previous element (delta only)

	hasEngine bool
	clock     float64
	nextID    SubscriptionID
	subs      []checkpointSub

	// Capture bookkeeping, never encoded: the dirty/gone maps swapped out of
	// the stripes (restored if the write fails) and the captured dirty-flag
	// values; size is the on-disk element size filled in by readChain.
	savedDirty []map[ObjectID]struct{}
	savedGone  []map[ObjectID]struct{}
	savedSubs  bool
	savedPart  bool
	size       int64
}

// checkpointSub is one subscription with its full membership.
type checkpointSub struct {
	id      SubscriptionID
	sub     Subscription
	members []ObjectID
}

// Checkpoint persists a consistent cut of the Store's logical state to the
// data directory — the first checkpoint (and any compaction) writes a full
// snapshot, every later one writes only the state dirtied since the previous
// checkpoint as a delta file chained to the last full snapshot — and then
// reclaims the log segments the cut covers. The write-verb pause is the
// capture window only, O(changes) for a delta; serialization and fsync run
// off the commit lock. Returns ErrUnsupported for a non-durable Store. Safe
// to call concurrently with writes; concurrent checkpoints serialize. The
// outcome is also recorded as a maintenance event (MaintCheckpoint).
func (s *Store) Checkpoint() error {
	d := s.dur
	if d == nil {
		return fmt.Errorf("vpindex: checkpoint of a non-durable store: %w", ErrUnsupported)
	}
	// A failed store's files are closed (or its process image is dead); a
	// degraded store may still checkpoint — the snapshot path is separate
	// from whatever fault degraded it, and a successful checkpoint can
	// reclaim log segments.
	if Health(s.health.Load()) == HealthFailed {
		return s.healthErr(ErrFailed)
	}
	ck, err := s.checkpointLocked(d)
	ev := MaintenanceEvent{Op: MaintCheckpoint, Err: err, SampleSize: len(ck.objects), Swapped: err == nil}
	s.recordMaintenance(ev)
	s.notifyMaintenance(ev)
	if err == nil && ck.delta {
		s.maybeCompact(d)
	}
	return err
}

// checkpointLocked is Checkpoint's core under ckptMu: capture, write, stats.
// Hook notification and compaction scheduling stay outside the lock so a
// maintenance hook may call any Store method — including Close, which drains
// in-flight checkpoints by acquiring ckptMu itself.
func (s *Store) checkpointLocked(d *durability) (checkpointState, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	// Re-check under the lock: a Close that won the race has already drained
	// the files, and a checkpoint written now would recreate them.
	if d.closed.Load() {
		return checkpointState{}, s.healthErr(ErrFailed)
	}
	full := d.ckptGen.Load() == 0 // nothing durable yet: the chain needs its base
	start := time.Now()
	d.commitMu.Lock()
	var ck checkpointState
	if full {
		ck = s.captureCheckpoint(d)
	} else {
		ck = s.captureDelta(d)
	}
	d.commitMu.Unlock()
	pause := time.Since(start).Nanoseconds()
	d.pauseLast.Store(pause)
	for {
		max := d.pauseMax.Load()
		if pause <= max || d.pauseMax.CompareAndSwap(max, pause) {
			break
		}
	}
	name := ckptFileName
	if ck.delta {
		name = deltaFileName(ck.gen)
	}
	n, err := d.writeCheckpointFile(name, ck)
	if err != nil {
		// The capture emptied the dirty sets; the write never became durable,
		// so fold them back in (newer marks win) for the next attempt.
		s.restoreDirty(d, ck)
	} else {
		d.ckptGen.Store(ck.gen)
		d.ckptLSN.Store(ck.lsn)
		d.ckptBytes.Store(n)
		d.ckpts.Add(1)
		if ck.delta {
			d.chainLen.Add(1)
			d.chainBytes.Add(n)
		} else {
			d.resetChain(ck.gen)
		}
		// Reclamation is best-effort: a failure leaves extra segments whose
		// replay is harmless (the next recovery starts at the checkpoint's
		// LSN and skips everything before it).
		_ = d.wal.TruncateBefore(ck.lsn)
	}
	return ck, err
}

// captureCheckpoint snapshots the full logical state. Caller holds
// d.commitMu exclusively, so no write verb is between its apply and its
// append: every operation is either fully reflected here or entirely after
// ck.lsn. The dirty sets are consumed — the snapshot covers everything —
// and stashed on the returned state so a failed write can restore them.
func (s *Store) captureCheckpoint(d *durability) checkpointState {
	ck := checkpointState{lsn: d.wal.AppendedLSN(), gen: d.ckptGen.Load() + 1}
	ck.analysis, ck.partitioned = s.Analysis()
	ck.savedSubs = d.subsDirty.Swap(false)
	ck.savedPart = d.partDirty.Swap(false)
	s.mgrMu.RLock()
	ck.objects = s.mgr.Objects()
	s.mgrMu.RUnlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		ck.savedDirty = append(ck.savedDirty, sh.dirty)
		ck.savedGone = append(ck.savedGone, sh.gone)
		if sh.dirty != nil {
			sh.dirty = make(map[ObjectID]struct{})
			sh.gone = make(map[ObjectID]struct{})
		}
		sh.mu.Unlock()
	}
	s.captureEngine(&ck)
	return ck
}

// captureDelta snapshots only the state dirtied since the previous
// checkpoint: the current records of the dirty IDs, tombstones for the
// removed ones, the analysis only if the partitions changed, and the
// subscription registry whenever it exists and could have changed (a live
// subscription's membership moves on every report, so the engine section
// rides every delta while subscriptions are registered). Caller holds
// d.commitMu exclusively; the locking discipline matches captureCheckpoint.
func (s *Store) captureDelta(d *durability) checkpointState {
	prev := d.ckptGen.Load()
	ck := checkpointState{lsn: d.wal.AppendedLSN(), gen: prev + 1, parentGen: prev, delta: true}
	ck.savedSubs = d.subsDirty.Swap(false)
	ck.savedPart = d.partDirty.Swap(false)
	if ck.savedPart {
		ck.analysis, ck.partitioned = s.Analysis()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id := range sh.dirty {
			if o, ok := s.mgr.Get(id); ok {
				ck.objects = append(ck.objects, o)
			} else {
				ck.tombs = append(ck.tombs, id)
			}
		}
		for id := range sh.gone {
			ck.tombs = append(ck.tombs, id)
		}
		ck.savedDirty = append(ck.savedDirty, sh.dirty)
		ck.savedGone = append(ck.savedGone, sh.gone)
		if sh.dirty != nil {
			sh.dirty = make(map[ObjectID]struct{})
			sh.gone = make(map[ObjectID]struct{})
		}
		sh.mu.Unlock()
	}
	if e := s.subEng.Load(); e != nil && (e.nsubs.Load() > 0 || ck.savedSubs) {
		s.captureEngine(&ck)
	}
	return ck
}

// captureEngine fills ck's subscription-registry section from the live
// engine (no-op when none exists).
func (s *Store) captureEngine(ck *checkpointState) {
	e := s.subEng.Load()
	if e == nil {
		return
	}
	ck.hasEngine = true
	ck.clock = e.now()
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	ck.nextID = e.nextID
	ids := make([]SubscriptionID, 0, len(e.subs))
	for id := range e.subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cs := checkpointSub{id: id, sub: e.subs[id]}
		for si := range e.shards {
			sh := &e.shards[si]
			sh.mu.Lock()
			cs.members = append(cs.members, sh.rs.Members(id)...)
			sh.mu.Unlock()
		}
		ck.subs = append(ck.subs, cs)
	}
}

// restoreDirty folds a failed checkpoint's captured dirty state back into
// the live stripes so the next attempt re-covers it. Marks made after the
// capture win: an ID re-dirtied since stays dirty, one removed since stays
// gone.
func (s *Store) restoreDirty(d *durability, ck checkpointState) {
	for i, sh := range s.shards {
		if i >= len(ck.savedDirty) || ck.savedDirty[i] == nil {
			continue
		}
		sh.mu.Lock()
		for id := range ck.savedDirty[i] {
			if _, newer := sh.gone[id]; !newer {
				sh.dirty[id] = struct{}{}
			}
		}
		for id := range ck.savedGone[i] {
			if _, newer := sh.dirty[id]; !newer {
				sh.gone[id] = struct{}{}
			}
		}
		sh.mu.Unlock()
	}
	if ck.savedSubs {
		d.subsDirty.Store(true)
	}
	if ck.savedPart {
		d.partDirty.Store(true)
	}
}

// clearDirtyState empties every stripe's dirty set and both dirty flags.
// Recovery calls it after applying the on-disk chain (whose contents are by
// definition already durable) and before replaying the WAL tail, whose
// records re-mark exactly the state the next delta must cover.
func (s *Store) clearDirtyState(d *durability) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.dirty != nil {
			sh.dirty = make(map[ObjectID]struct{})
			sh.gone = make(map[ObjectID]struct{})
		}
		sh.mu.Unlock()
	}
	d.subsDirty.Store(false)
	d.partDirty.Store(false)
}

// resetChain records that a full snapshot at gen replaced the chain, and
// removes any delta files it made stale (best-effort; recovery also skips
// deltas at or below the full snapshot's generation).
func (d *durability) resetChain(gen uint64) {
	d.chainLen.Store(0)
	d.chainBytes.Store(0)
	names, err := filepath.Glob(filepath.Join(d.dir, "ckpt-*.delta"))
	if err != nil {
		return
	}
	stale := filepath.Join(d.dir, deltaFileName(gen))
	for _, name := range names {
		if name <= stale {
			_ = os.Remove(name)
		}
	}
}

// compactionDue reports whether the delta chain has outgrown the
// WithCheckpointCompaction policy.
func (d *durability) compactionDue() bool {
	return (d.compactChainMax > 0 && d.chainLen.Load() >= int64(d.compactChainMax)) ||
		(d.compactBytesMax > 0 && d.chainBytes.Load() >= d.compactBytesMax)
}

// maybeCompact starts a background chain fold when the policy says so; at
// most one compaction runs at a time.
func (s *Store) maybeCompact(d *durability) {
	if !d.compactionDue() {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.compacting.Store(false)
		_ = s.compactCheckpoints()
	}()
}

// compactCheckpoints folds the on-disk full+delta chain into a single full
// snapshot, entirely off the commit lock: it re-reads the chain from disk,
// merges it, shadow-writes the merged state over checkpoint.ckpt, and
// deletes the folded delta files. Writes proceed concurrently — their dirty
// marks are untouched — and a crash at any point leaves the old chain
// intact (a surviving stale delta is skipped at recovery). Serialized with
// Checkpoint by ckptMu, so the chain cannot grow under the fold.
func (s *Store) compactCheckpoints() error {
	d := s.dur
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed.Load() || Health(s.health.Load()) == HealthFailed {
		return nil
	}
	elems, err := d.readChain()
	if err != nil || len(elems) < 2 {
		return err
	}
	folded := foldChain(elems)
	if _, err := d.writeCheckpointFile(ckptFileName, folded); err != nil {
		return err
	}
	for _, e := range elems[1:] {
		_ = os.Remove(filepath.Join(d.dir, deltaFileName(e.gen)))
	}
	d.chainLen.Store(0)
	d.chainBytes.Store(0)
	d.compactions.Add(1)
	return nil
}

// foldChain merges a full snapshot and its deltas (in chain order) into one
// full checkpointState carrying the last element's generation and LSN:
// later object versions win, tombstones delete, and the newest analysis and
// registry sections carry over (an element without those sections means
// "unchanged since the previous one").
func foldChain(elems []checkpointState) checkpointState {
	out := checkpointState{
		gen: elems[len(elems)-1].gen,
		lsn: elems[len(elems)-1].lsn,
	}
	objs := make(map[ObjectID]Object, len(elems[0].objects))
	for _, e := range elems {
		for _, o := range e.objects {
			objs[o.ID] = o
		}
		for _, id := range e.tombs {
			delete(objs, id)
		}
		if e.partitioned {
			out.analysis, out.partitioned = e.analysis, true
		}
		if e.hasEngine {
			out.hasEngine = true
			out.clock, out.nextID, out.subs = e.clock, e.nextID, e.subs
		}
	}
	out.objects = make([]Object, 0, len(objs))
	for _, o := range objs {
		out.objects = append(out.objects, o)
	}
	sort.Slice(out.objects, func(i, j int) bool { return out.objects[i].ID < out.objects[j].ID })
	return out
}

// Checkpoint file layout: magic, version, payload, CRC32 of the payload.
// Version 2 added the chain fields (generation, parent generation, delta
// flag, tombstones) and made the analysis section conditional on its flag;
// it is the only version read or written.
const (
	ckptMagic   = 0x5650434B // "VPCK"
	ckptVersion = 2
)

// Flag bits in the checkpoint payload.
const (
	ckptFlagAnalysis = 1 << 0 // element carries a partition analysis
	ckptFlagEngine   = 1 << 1 // element carries the subscription registry
	ckptFlagDelta    = 1 << 2 // element is a delta, not a full snapshot
)

// encodeCheckpoint serializes a checkpointState.
func encodeCheckpoint(ck checkpointState) []byte {
	b := make([]byte, 0, 96+len(ck.objects)*48+len(ck.tombs)*8)
	b = binary.LittleEndian.AppendUint32(b, ckptMagic)
	b = binary.LittleEndian.AppendUint32(b, ckptVersion)
	payloadStart := len(b)
	b = binary.LittleEndian.AppendUint64(b, ck.gen)
	b = binary.LittleEndian.AppendUint64(b, ck.parentGen)
	b = binary.LittleEndian.AppendUint64(b, ck.lsn)
	var flags byte
	if ck.partitioned {
		flags |= ckptFlagAnalysis
	}
	if ck.hasEngine {
		flags |= ckptFlagEngine
	}
	if ck.delta {
		flags |= ckptFlagDelta
	}
	b = append(b, flags)
	if ck.partitioned {
		an := core.EncodeAnalysis(ck.analysis)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(an)))
		b = append(b, an...)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.objects)))
	for _, o := range ck.objects {
		b = wal.AppendObject(b, o)
	}
	if ck.delta {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.tombs)))
		for _, id := range ck.tombs {
			b = binary.LittleEndian.AppendUint64(b, uint64(id))
		}
	}
	if ck.hasEngine {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ck.clock))
		b = binary.LittleEndian.AppendUint64(b, uint64(ck.nextID))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.subs)))
		for _, cs := range ck.subs {
			b = binary.LittleEndian.AppendUint64(b, uint64(cs.id))
			b = wal.AppendSubscription(b, cs.sub)
			b = binary.LittleEndian.AppendUint64(b, uint64(len(cs.members)))
			for _, id := range cs.members {
				b = binary.LittleEndian.AppendUint64(b, uint64(id))
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[payloadStart:]))
}

// decodeCheckpoint reverses encodeCheckpoint, validating magic, version,
// and CRC. The rename protocol makes a torn checkpoint impossible, so any
// validation failure is real corruption and surfaces as an error.
func decodeCheckpoint(b []byte) (checkpointState, error) {
	var ck checkpointState
	bad := func(what string) (checkpointState, error) {
		return ck, fmt.Errorf("vpindex: checkpoint: %s", what)
	}
	if len(b) < 12 {
		return bad("truncated header")
	}
	if binary.LittleEndian.Uint32(b) != ckptMagic {
		return bad("bad magic")
	}
	if ver := binary.LittleEndian.Uint32(b[4:]); ver != ckptVersion {
		return bad(fmt.Sprintf("unsupported version %d", ver))
	}
	payload := b[8 : len(b)-4]
	if got, want := binary.LittleEndian.Uint32(b[len(b)-4:]), crc32.ChecksumIEEE(payload); got != want {
		return bad("CRC mismatch")
	}
	r := payload
	u64 := func() (uint64, bool) {
		if len(r) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(r)
		r = r[8:]
		return v, true
	}
	gen, ok1 := u64()
	parentGen, ok2 := u64()
	lsn, ok3 := u64()
	if !ok1 || !ok2 || !ok3 || len(r) < 1 {
		return bad("truncated")
	}
	ck.gen, ck.parentGen, ck.lsn = gen, parentGen, lsn
	flags := r[0]
	r = r[1:]
	ck.partitioned = flags&ckptFlagAnalysis != 0
	ck.hasEngine = flags&ckptFlagEngine != 0
	ck.delta = flags&ckptFlagDelta != 0
	if ck.partitioned {
		anLen, ok := u64()
		if !ok || uint64(len(r)) < anLen {
			return bad("truncated analysis")
		}
		var err error
		if ck.analysis, err = core.DecodeAnalysis(r[:anLen]); err != nil {
			return ck, err
		}
		r = r[anLen:]
	}
	nObjs, ok := u64()
	if !ok || uint64(len(r)) < nObjs*48 {
		return bad("truncated objects")
	}
	ck.objects = make([]Object, nObjs)
	for i := range ck.objects {
		ck.objects[i], r, _ = wal.TakeObject(r)
	}
	if ck.delta {
		nTombs, ok := u64()
		if !ok || uint64(len(r)) < nTombs*8 {
			return bad("truncated tombstones")
		}
		ck.tombs = make([]ObjectID, nTombs)
		for i := range ck.tombs {
			v, _ := u64()
			ck.tombs[i] = ObjectID(v)
		}
	}
	if !ck.hasEngine {
		if len(r) != 0 {
			return bad("trailing bytes")
		}
		return ck, nil
	}
	clockBits, ok1 := u64()
	nextID, ok2 := u64()
	nSubs, ok3 := u64()
	if !ok1 || !ok2 || !ok3 {
		return bad("truncated registry")
	}
	ck.clock = math.Float64frombits(clockBits)
	ck.nextID = SubscriptionID(nextID)
	ck.subs = make([]checkpointSub, 0, nSubs)
	for i := uint64(0); i < nSubs; i++ {
		id, ok := u64()
		if !ok {
			return bad("truncated subscription")
		}
		sub, rest, err := wal.TakeSubscription(r)
		if err != nil {
			return ck, err
		}
		r = rest
		nMem, ok := u64()
		if !ok || uint64(len(r)) < nMem*8 {
			return bad("truncated members")
		}
		cs := checkpointSub{id: SubscriptionID(id), sub: sub, members: make([]ObjectID, nMem)}
		for j := range cs.members {
			v, _ := u64()
			cs.members[j] = ObjectID(v)
		}
		ck.subs = append(ck.subs, cs)
	}
	if len(r) != 0 {
		return bad("trailing bytes")
	}
	return ck, nil
}

// writeCheckpointFile persists ck as name (checkpoint.ckpt or a delta file)
// with the shadow-file protocol: write to a tmp file, fsync it, rename to
// the target, fsync the directory. A crash anywhere leaves either the old
// element set or the new one, never a torn file. The fault injector gates
// the write and both fsyncs, so the kill matrix exercises every crash
// position. Returns the element's encoded size.
func (d *durability) writeCheckpointFile(name string, ck checkpointState) (int64, error) {
	fi := d.fstore.Injector()
	if err := fi.BeforeWrite(); err != nil {
		return 0, err
	}
	tmp := filepath.Join(d.dir, ckptTmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("vpindex: checkpoint: %w", err)
	}
	cleanup := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	enc := encodeCheckpoint(ck)
	if _, err := f.Write(enc); err != nil {
		return cleanup(fmt.Errorf("vpindex: checkpoint write: %w", err))
	}
	if err := fi.BeforeSync(); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("vpindex: checkpoint fsync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("vpindex: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("vpindex: checkpoint rename: %w", err)
	}
	if err := fi.BeforeSync(); err != nil {
		return 0, err
	}
	dir, err := os.Open(d.dir)
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		return 0, fmt.Errorf("vpindex: checkpoint dir fsync: %w", err)
	}
	return int64(len(enc)), nil
}

// loadCheckpointFile reads and decodes one chain element; ok is false when
// the file does not exist.
func (d *durability) loadCheckpointFile(name string) (ck checkpointState, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(d.dir, name))
	if os.IsNotExist(err) {
		return checkpointState{}, false, nil
	}
	if err != nil {
		return checkpointState{}, false, err
	}
	ck, err = decodeCheckpoint(b)
	ck.size = int64(len(b))
	return ck, err == nil, err
}

// readChain loads the on-disk checkpoint chain: the full snapshot followed
// by its delta files in generation order. Deltas at or below the full
// snapshot's generation are pre-compaction leftovers and are deleted; a gap
// in the parent linkage means a missing element, which is corruption the
// shadow-write protocol cannot produce, so it surfaces as an error rather
// than a silently shortened history. Returns an empty chain when no
// checkpoint exists yet.
func (d *durability) readChain() ([]checkpointState, error) {
	full, ok, err := d.loadCheckpointFile(ckptFileName)
	if err != nil {
		return nil, err
	}
	names, gerr := filepath.Glob(filepath.Join(d.dir, "ckpt-*.delta"))
	if gerr != nil {
		return nil, gerr
	}
	sort.Strings(names) // zero-padded generations: lexical order == chain order
	if !ok {
		if len(names) > 0 {
			return nil, fmt.Errorf("vpindex: checkpoint: %d delta file(s) with no full snapshot", len(names))
		}
		return nil, nil
	}
	chain := []checkpointState{full}
	for _, name := range names {
		e, ok, err := d.loadCheckpointFile(filepath.Base(name))
		if err != nil {
			return nil, err
		}
		if !ok || !e.delta {
			return nil, fmt.Errorf("vpindex: checkpoint: %s is not a delta element", filepath.Base(name))
		}
		if e.gen <= full.gen {
			_ = os.Remove(name) // folded into the full snapshot by a compaction
			continue
		}
		if e.parentGen != chain[len(chain)-1].gen {
			return nil, fmt.Errorf("vpindex: checkpoint: delta chain gap at gen %d (parent %d, want %d)",
				e.gen, e.parentGen, chain[len(chain)-1].gen)
		}
		chain = append(chain, e)
	}
	return chain, nil
}

// recover restores the Store from the data directory: load the checkpoint
// chain (full snapshot plus deltas in generation order), rebuild partitions
// and objects and subscriptions from it through the normal code paths, then
// replay the log tail. Runs inside Open with the recovering flag set, so
// nothing is re-logged and no maintenance analyses launch; the subscription
// filter's velocity classes are re-armed at the end from whatever analysis
// survived.
func (s *Store) recover() error {
	d := s.dur
	defer d.recovering.Store(false)
	chain, err := d.readChain()
	if err != nil {
		return err
	}
	var replayFrom uint64
	if len(chain) > 0 {
		// The newest analysis in the chain is the partition layout at the
		// last capture; apply it first so every object lands in the right
		// partitions directly (per-element swap replay would re-migrate the
		// population once per layout change for nothing).
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].partitioned {
				_ = s.swapPartitions(chain[i].analysis)
				break
			}
		}
		// Objects and tombstones must apply in chain order: a later delta
		// can re-report an ID an earlier one tombstoned, and vice versa.
		// Within one element the two sets are disjoint. A tombstone may
		// target an ID no earlier element carried (insert+remove between two
		// checkpoints), so unknown IDs are ignored.
		for _, e := range chain {
			if len(e.objects) > 0 {
				if err := s.ReportBatch(e.objects); err != nil {
					return fmt.Errorf("vpindex: recover objects: %w", err)
				}
			}
			for _, id := range e.tombs {
				_ = s.Remove(id)
			}
		}
		// The newest registry section is the registry at the last capture
		// (an element without one means "unchanged").
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].hasEngine {
				s.restoreSubscriptions(chain[i])
				break
			}
		}
		last := chain[len(chain)-1]
		replayFrom = last.lsn
		d.ckptLSN.Store(last.lsn)
		d.ckptGen.Store(last.gen)
		d.chainLen.Store(int64(len(chain) - 1))
		var bytes int64
		for _, e := range chain[1:] {
			bytes += e.size
		}
		d.chainBytes.Store(bytes)
		// Everything the chain just re-applied is already durable; only the
		// WAL tail below re-marks state the next delta must cover.
		s.clearDirtyState(d)
	}
	if err := d.wal.Replay(replayFrom, func(_ uint64, t wal.Type, p []byte) error {
		s.replayRecord(t, p)
		return nil
	}); err != nil {
		if !errors.Is(err, wal.ErrCorrupt) {
			return fmt.Errorf("vpindex: wal replay: %w", err)
		}
		// Mid-log corruption: valid acknowledged records exist past the bad
		// frame, so silently dropping them is not an option — but neither is
		// refusing to open, which would hold the intact prefix hostage. The
		// store opens read-only on everything replayed before the corruption.
		s.degrade("wal corruption detected during replay", err)
	}
	// A corrupt (not merely torn) tail in the active segment means the same:
	// the prefix recovered cleanly, but acknowledged history past the bad
	// frame may be gone. Serve the prefix read-only.
	if err := d.wal.CorruptTail(); err != nil {
		s.degrade("wal tail corruption", err)
	}
	if s.partitioned.Load() {
		s.refreshSubClasses()
	}
	if s.cfg.scrubEvery > 0 {
		d.scrubStop = make(chan struct{})
		d.scrubDone = make(chan struct{})
		go s.scrubLoop(s.cfg.scrubEvery, d.scrubStop, d.scrubDone)
	}
	return nil
}

// replayRecord applies one log record through the normal write paths.
// Replay is exactly-once (the commitMu protocol), so per-record errors are
// not expected; any that occur are swallowed — a partially recovered store
// beats none, and the differential oracle would catch real divergence.
func (s *Store) replayRecord(t wal.Type, p []byte) {
	d := s.dur
	switch t {
	case wal.TypeReport:
		if o, err := wal.DecodeReport(p); err == nil {
			_ = s.Report(o)
			d.replayed.Add(1)
		}
	case wal.TypeReportBatch:
		if objs, err := wal.DecodeReportBatch(p); err == nil {
			_ = s.ReportBatch(objs)
			d.replayed.Add(1)
		}
	case wal.TypeRemove:
		if id, err := wal.DecodeRemove(p); err == nil {
			_ = s.Remove(id)
			d.replayed.Add(1)
		}
	case wal.TypeSubscribe:
		if id, sub, now, err := wal.DecodeSubscribe(p); err == nil {
			_, _, _ = s.subscribeApply(id, sub, now)
			d.replayed.Add(1)
		}
	case wal.TypeUnsubscribe:
		if id, err := wal.DecodeUnsubscribe(p); err == nil {
			_ = s.Unsubscribe(id)
			d.replayed.Add(1)
		}
	case wal.TypeRefresh:
		if now, err := wal.DecodeRefresh(p); err == nil {
			_, _ = s.RefreshSubscriptions(now)
			d.replayed.Add(1)
		}
	case wal.TypePartitionSwap:
		// Recovery is single-threaded, so running the swap without maintMu
		// is safe.
		if an, err := core.DecodeAnalysis(p); err == nil {
			_ = s.swapPartitions(an)
			d.replayed.Add(1)
		}
	}
}

// restoreSubscriptions rebuilds the subscription registry from a checkpoint:
// registered ids, the engine clock, and the membership sets are restored
// verbatim (no seed queries run — memberships are history-dependent, so
// re-deriving them could differ from what the crashed process acknowledged).
func (s *Store) restoreSubscriptions(ck checkpointState) {
	e := s.engine()
	e.clock.Store(math.Float64bits(ck.clock))
	e.regMu.Lock()
	e.nextID = ck.nextID
	for _, cs := range ck.subs {
		e.subs[cs.id] = cs.sub
		e.filter.Add(cs.id, cs.sub)
	}
	e.regMu.Unlock()
	e.nsubs.Store(int64(len(ck.subs)))
	for _, cs := range ck.subs {
		byShard := make([][]ObjectID, len(e.shards))
		for _, id := range cs.members {
			si := s.shardIndex(id)
			byShard[si] = append(byShard[si], id)
		}
		for si := range e.shards {
			if len(byShard[si]) == 0 {
				continue
			}
			sh := &e.shards[si]
			sh.mu.Lock()
			sh.rs.Seed(cs.id, byShard[si])
			sh.mu.Unlock()
		}
	}
}
