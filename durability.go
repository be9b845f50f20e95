package vpindex

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
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
//     the previous checkpoint (per-stripe sets of the ObjectIDs written
//     since, each resolved at capture to its current record or a tombstone,
//     and registry/partition dirty flags) into a delta file chained to the
//     last full snapshot. The element type, its byte format, the shadow-write
//     file protocol, the chain's linkage rules and the fold are internal/ckpt;
//     what stays here is what only the Store knows: what to capture, when to
//     compact, how to apply. A compaction policy (WithCheckpointCompaction)
//     folds a long chain back into a single full snapshot in the background,
//     off the commit lock.
//   - Recovery folds the chain into one snapshot, loads it once — one
//     partition swap, one batch, one registry restore — and replays the log
//     tail through the normal write paths, so every index invariant,
//     subscription evaluation, and maintenance hook behaves exactly as it did
//     the first time. The page file (FileStore) is scratch space for this
//     process: it starts empty at every Open and nothing in it is ever read by
//     a later one.
//
// Consistency between a checkpoint and the log is the write gate
// (Store.commitMu): each write verb holds it shared across its {apply,
// append} pair, and a checkpoint holds it exclusively while capturing
// {snapshot, log position}, as a partition swap does across its {flip, swap
// record} pair, so every operation is either fully inside the snapshot or
// entirely after the captured LSN — replay is exactly once. The fsync wait
// happens after the shared lock is released, so a checkpoint never stalls
// behind group commit. That sequence is written once, in logged, and every
// logging verb goes through it; concurrent writers are batched by the log's
// own group commit (wal.Commit elects a flush leader and shares one fsync
// among the committers waiting on it), not by a queue in front of it.

// durability is the durable-mode state hanging off a Store.
type durability struct {
	dir    string
	wal    *wal.WAL
	fstore *storage.FileStore

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
	// checkpoint (the per-object dirty sets live in the stripes). ckptInFlight
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
)

// initDurable opens the data directory's page file and log. Called from Open
// before any index is built; recovery itself runs after the manager exists.
func (s *Store) initDurable() error {
	cfg := &s.cfg
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return fmt.Errorf("vpindex: data dir: %w", err)
	}
	fstore, err := storage.OpenFileStore(filepath.Join(cfg.dataDir, pagesFileName), storage.FileStoreOptions{
		// The page file is scratch: every index page is rebuilt from
		// checkpoint + log replay, so a previous process's file is discarded.
		Truncate: true,
		Injector: cfg.injector,
	})
	if err != nil {
		return err
	}
	w, err := wal.Open(filepath.Join(cfg.dataDir, walDirName), wal.Options{
		SegmentBytes: cfg.walSegBytes,
		Policy:       cfg.syncPol,
		Injector:     cfg.injector,
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

// Close flushes the log and closes it and the page file (scratch, so not
// flushed), stopping the background scrubber first. A non-durable Store has
// nothing to flush; Close is then a no-op. Close is idempotent and safe for
// concurrent callers — exactly one does the shutdown, the rest return nil —
// and leaves the store Failed ("closed"): later writes return ErrFailed, reads
// keep serving the final in-memory state.
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
// Insert, Remove, ReportBatch, Subscribe, Unsubscribe,
// RefreshSubscriptions — is its in-memory apply run through it. After the
// health gate, under the shared commit lock, apply runs and says whether
// anything landed that the log must carry, alongside the verb's own error: a
// rejected apply logs nothing, a partial failure (ReportBatch,
// RefreshSubscriptions) logs the part that landed. encode appends the record
// payload to dst — a pooled buffer that WAL.Append copies out of before
// returning, so the steady-state write path allocates nothing per record.
// The wait on the sync policy comes after the lock is released. Every error
// that escapes is classified by noteIOFault once the gate is released, and
// the returned one is the append's, else the commit's, else apply's.
// Non-durable stores run apply alone under the gate, and so does replay
// during recovery — without the health gate either: a replayed record that
// degrades the store must not make the records after it drop.
func (s *Store) logged(t wal.Type, apply func() (landed bool, err error), encode func(dst []byte) []byte) error {
	d := s.dur
	if d == nil || d.recovering.Load() {
		s.commitMu.RLock()
		_, err := apply()
		s.commitMu.RUnlock()
		s.noteIOFault(err)
		return err
	}
	if herr := s.writeAllowed(); herr != nil {
		return herr
	}
	var (
		lsn  uint64
		lerr error // the append's error, else the commit's
	)
	s.commitMu.RLock()
	landed, err := apply()
	if landed {
		buf := wal.GetBuf()
		*buf = encode((*buf)[:0])
		lsn, lerr = d.wal.Append(t, *buf)
		wal.PutBuf(buf)
	}
	s.commitMu.RUnlock()
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
// The caller holds the write gate exclusively, and classifies the returned
// append error once it is released. It does not wait for the fsync: no
// caller is blocked on the swap, and the record becomes durable with the next
// committed record, checkpoint, or Close.
func (s *Store) logSwap(an core.Analysis) error {
	d := s.dur
	if d == nil || d.recovering.Load() {
		return nil
	}
	// Mark the partitions dirty before the append: a delta capture that sees
	// the flag clear is guaranteed to have cut before this record's LSN, so
	// the swap is covered by the WAL tail instead; seeing it set merely adds
	// a redundant analysis to the next delta.
	d.partDirty.Store(true)
	_, err := d.wal.Append(wal.TypePartitionSwap, core.EncodeAnalysis(an))
	if err == nil {
		d.noteRecords(s, 1)
	}
	return err
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
}

// DurabilityStats returns the durable-mode counters, and whether the Store
// is durable at all.
func (s *Store) DurabilityStats() (DurabilityStats, bool) {
	d := s.dur
	if d == nil {
		return DurabilityStats{}, false
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
		ReplayedRecords:      d.replayed.Load(),
		Health:               s.Health(),
		HealthReason:         reason,
		QuarantinedPages:     d.fstore.Quarantined(),
		ScrubPasses:          d.scrubPasses.Load(),
		ScrubCorruptions:     d.scrubCorrupt.Load(),
	}, true
}

// IngestStats held the counters of the write coalescer, which no longer
// exists. The type and the method are kept only for benchmark/trace.go, which
// calls s.IngestStats() and cannot be edited outside a benchmark PR; delete
// both with the replica ladder (ROADMAP item 1).
type IngestStats struct{ CoalescedBatches, CoalescedRecords, FlushBarriers int64 }

// IngestStats always returns (IngestStats{}, false).
func (s *Store) IngestStats() (IngestStats, bool) { return IngestStats{}, false }

// captured is one checkpoint capture: the chain element to write, plus what a
// failed write needs to undo the capture — the per-stripe dirty sets swapped
// out of the stripes and the dirty-flag values read. None of it is encoded.
type captured struct {
	ckpt.Element
	savedDirty []map[ObjectID]struct{}
	savedSubs  bool
	savedPart  bool
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
	ev := MaintenanceEvent{Op: MaintCheckpoint, Err: err, SampleSize: len(ck.Objects), Swapped: err == nil}
	s.recordMaintenance(ev)
	s.notifyMaintenance(ev)
	if err == nil && ck.Delta {
		s.maybeCompact(d)
	}
	return err
}

// checkpointLocked is Checkpoint's core under ckptMu: capture, write, stats.
// Hook notification and compaction scheduling stay outside the lock so a
// maintenance hook may call any Store method — including Close, which drains
// in-flight checkpoints by acquiring ckptMu itself.
func (s *Store) checkpointLocked(d *durability) (captured, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	// Re-check under the lock: a Close that won the race has already drained
	// the files, and a checkpoint written now would recreate them.
	if d.closed.Load() {
		return captured{}, s.healthErr(ErrFailed)
	}
	full := d.ckptGen.Load() == 0 // nothing durable yet: the chain needs its base
	start := time.Now()
	s.commitMu.Lock()
	ck := s.capture(d, full)
	s.commitMu.Unlock()
	pause := time.Since(start).Nanoseconds()
	d.pauseLast.Store(pause)
	for {
		max := d.pauseMax.Load()
		if pause <= max || d.pauseMax.CompareAndSwap(max, pause) {
			break
		}
	}
	n, err := ckpt.Write(d.dir, ck.Element, d.fstore.Injector())
	if err != nil {
		// The capture emptied the dirty sets; the write never became durable,
		// so put them back for the next attempt.
		s.restoreDirty(d, ck)
	} else {
		d.ckptGen.Store(ck.Gen)
		d.ckptLSN.Store(ck.LSN)
		d.ckptBytes.Store(n)
		d.ckpts.Add(1)
		if ck.Delta {
			d.chainLen.Add(1)
			d.chainBytes.Add(n)
		} else {
			d.chainReplaced(ck.Gen)
		}
		// Reclamation is best-effort: a failure leaves extra segments whose
		// replay is harmless (the next recovery starts at the checkpoint's
		// LSN and skips everything before it).
		_ = d.wal.TruncateBefore(ck.LSN)
	}
	return ck, err
}

// capture cuts one chain element. Caller holds the write gate exclusively, so
// no write verb is between its apply and its append: every operation is either
// fully reflected here or entirely after ck.LSN. A full capture snapshots the
// whole logical state — every object, the analysis, the registry. A delta
// carries only what changed since the previous element: each id written since
// resolved to its current record or, when it is gone, a tombstone (no writer
// can move the table under the gate, which is what makes one set enough — a
// set of "removed" ids would decide nothing the lookup does not); the
// analysis only if the partitions changed; and the subscription registry
// whenever it exists
// and could have changed (a live subscription's membership moves on every
// report, so the engine section rides every delta while subscriptions are
// registered). Either way the dirty sets are consumed and stashed on the
// returned capture so a failed write can restore them.
func (s *Store) capture(d *durability, full bool) captured {
	prev := d.ckptGen.Load()
	ck := captured{Element: ckpt.Element{LSN: d.wal.AppendedLSN(), Gen: prev + 1}}
	ck.savedSubs = d.subsDirty.Swap(false)
	ck.savedPart = d.partDirty.Swap(false)
	if full {
		s.mgrMu.RLock()
		ck.Objects = s.mgr.Objects()
		s.mgrMu.RUnlock()
	} else {
		ck.Delta, ck.ParentGen = true, prev
	}
	if full || ck.savedPart {
		ck.Analysis, ck.Partitioned = s.Analysis()
	}
	for i := range s.stripes {
		s.inStripe(i, func(st *stripe) {
			ck.savedDirty = append(ck.savedDirty, st.dirty)
			st.dirty = make(map[ObjectID]struct{})
		})
	}
	for i := 0; !full && i < len(ck.savedDirty); i++ {
		for id := range ck.savedDirty[i] {
			if o, ok := s.mgr.Get(id); ok {
				ck.Objects = append(ck.Objects, o)
			} else {
				ck.Tombs = append(ck.Tombs, id)
			}
		}
	}
	if e := s.subEng.Load(); e != nil && (full || e.nsubs.Load() > 0 || ck.savedSubs) {
		e.capture(&ck.Element)
	}
	return ck
}

// capture fills ck's subscription-registry section from the live engine.
func (e *subEngine) capture(ck *ckpt.Element) {
	ck.HasEngine = true
	ck.Clock = e.now()
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	ck.NextID = e.nextID
	ids := make([]SubscriptionID, 0, len(e.subs))
	for id := range e.subs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		ck.Subs = append(ck.Subs, ckpt.Sub{ID: id, Sub: e.subs[id], Members: e.members(id)})
	}
}

// restoreDirty puts a failed capture's dirty state back into the live stripes
// so the next attempt re-covers it: the union of what the capture took and
// what has been written since, each id resolved afresh by the next capture.
func (s *Store) restoreDirty(d *durability, ck captured) {
	for i := range s.stripes {
		s.inStripe(i, func(st *stripe) { maps.Copy(st.dirty, ck.savedDirty[i]) })
	}
	if ck.savedSubs {
		d.subsDirty.Store(true)
	}
	if ck.savedPart {
		d.partDirty.Store(true)
	}
}

// clearDirtyState empties every stripe's dirty set and both dirty flags.
// Recovery calls it after loading the on-disk chain (whose contents are by
// definition already durable) and before replaying the WAL tail, whose
// records re-mark exactly the state the next delta must cover.
func (s *Store) clearDirtyState(d *durability) {
	for i := range s.stripes {
		s.inStripe(i, func(st *stripe) { st.dirty = make(map[ObjectID]struct{}) })
	}
	d.subsDirty.Store(false)
	d.partDirty.Store(false)
}

// chainReplaced records that a full snapshot at gen replaced the chain, and
// removes the delta files it made stale.
func (d *durability) chainReplaced(gen uint64) {
	d.chainLen.Store(0)
	d.chainBytes.Store(0)
	ckpt.RemoveDeltas(d.dir, gen)
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
	chain, _, err := ckpt.ReadChain(d.dir)
	if err != nil || len(chain) < 2 {
		return err
	}
	folded := ckpt.Fold(chain)
	if _, err := ckpt.Write(d.dir, folded, d.fstore.Injector()); err != nil {
		return err
	}
	d.chainReplaced(folded.Gen)
	d.compactions.Add(1)
	return nil
}

// recover restores the Store from the data directory: fold the checkpoint
// chain into one snapshot, load it — partitions, then every object once, then
// the subscription registry — through the normal code paths, then replay the
// log tail. Runs inside Open with the recovering flag set, so nothing is
// re-logged and no maintenance analyses launch; the subscription filter's
// velocity classes are re-armed at the end from whatever analysis survived.
func (s *Store) recover() error {
	d := s.dur
	defer d.recovering.Store(false)
	chain, deltaBytes, err := ckpt.ReadChain(d.dir)
	if err != nil {
		return err
	}
	var replayFrom uint64
	if len(chain) > 0 {
		snap := ckpt.Fold(chain)
		// Partitions first, so every object lands in its partition directly.
		if snap.Partitioned {
			_ = s.swapPartitions(snap.Analysis)
		}
		if err := s.ReportBatch(snap.Objects); err != nil {
			return fmt.Errorf("vpindex: recover objects: %w", err)
		}
		if snap.HasEngine {
			s.restoreSubscriptions(snap)
		}
		replayFrom = snap.LSN
		d.ckptLSN.Store(snap.LSN)
		d.ckptGen.Store(snap.Gen)
		d.chainLen.Store(int64(len(chain) - 1))
		d.chainBytes.Store(deltaBytes)
		// Everything just loaded is already durable; only the WAL tail below
		// re-marks state the next delta must cover.
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
// Replay is exactly-once (the write-gate protocol), so per-record errors are
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
			_, evs, err := s.subscribeApply(id, sub, now)
			s.engine().emit(evs)
			s.noteIOFault(err)
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
func (s *Store) restoreSubscriptions(ck ckpt.Element) {
	e := s.engine()
	e.clock.Store(math.Float64bits(ck.Clock))
	e.regMu.Lock()
	e.nextID = ck.NextID
	for _, cs := range ck.Subs {
		e.subs[cs.ID] = cs.Sub
		e.filter.Add(cs.ID, cs.Sub)
	}
	e.regMu.Unlock()
	e.nsubs.Store(int64(len(ck.Subs)))
	for _, cs := range ck.Subs {
		for i, ids := range s.byStripe(cs.Members) {
			if len(ids) > 0 {
				s.inStripe(i, func(st *stripe) { st.rs.Seed(cs.ID, ids) })
			}
		}
	}
}
