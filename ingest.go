package vpindex

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// This file is the write coalescer behind WithWriteCoalescing: a
// leader-drained ingest pipeline that turns concurrent Report calls into one
// shard-batched apply plus one WAL record, while keeping Report's
// synchronous, per-record-error contract.
//
// The discipline is the same leader/follower election internal/wal's group
// commit uses, one layer up: callers enqueue a pooled pending slot into a
// FIFO and block; whoever finds no active leader and a non-empty queue
// becomes it, dwells up to the configured window for stragglers (cut short
// when the queue reaches maxBatch or a flush barrier arrives), drains up to
// maxBatch slots, and runs them as one batch — one shard-lock acquisition
// per touched shard (applyReportBatch), one merged subscription delta, one
// TypeReportBatch append through the pooled-buffer path, one wait on the
// sync policy — then wakes every drained waiter with its own error.
//
// The drain is pipelined around the sync wait: leadership is handed back
// right after the WAL append, before wal.Commit. The next batch's apply and
// append then overlap the in-flight fsync — and, under group commit, land
// before the flush leader captures its sync target, so consecutive batches
// ride one fsync. This also collapses the per-record Commit storm of the
// direct path (N callers taking the flush lock in turn just to observe the
// durable watermark) into one Commit call per batch, which is where the
// coalescer's throughput win comes from when fsyncs are already shared.
//
// Ordering: the FIFO drain preserves per-object order (two Reports of the
// same object hash to the same shard and apply in drain order, and the
// earlier one is never drained later than the second). Cross-verb order is
// preserved by flush barriers: Remove/Insert/Update/ReportBatch, Checkpoint,
// and Close first wait for every previously enqueued Report to be
// acknowledged, so the exclusive commit-lock semantics and the recovery
// invariants are untouched. During recovery replay the coalescer is bypassed
// entirely (replayed records must not re-batch), and a disabled coalescer
// leaves Report on the direct path.
//
// Error attribution: applyReportBatch's applied-prefix bookkeeping says, per
// shard, how many of the shard's drained records landed before its first
// error. A slot whose position is inside the prefix gets nil (or the batch's
// WAL append/commit error — exactly what the direct path would return); the
// slot at the prefix boundary gets the shard's error; later slots of that
// shard were not attempted (shards stop at the first error, like
// ReportBatch) and report that explicitly.

// DefaultCoalesceBatch caps one drained batch when WithWriteCoalescing is
// given a non-positive maxBatch.
const DefaultCoalesceBatch = 256

// pendingSlot is one queued Report awaiting its drain. Slots are pooled
// (satellite of the zero-allocation plumbing): a slot lives from enqueue to
// the moment its owner reads err back, and the owner returns it to the pool.
type pendingSlot struct {
	o    Object
	err  error
	done bool
}

var slotPool = sync.Pool{New: func() any { return new(pendingSlot) }}

// coalescer is the shared ingest pipeline state. All queue fields are
// guarded by mu; the scratch fields (batch, objs, timer) are owned by the
// currently active leader, which there is at most one of by construction.
type coalescer struct {
	s        *Store
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*pendingSlot
	active  bool  // a leader is dwelling or draining
	barrier int   // flush barriers currently waiting (skips the dwell)
	enqSeq  int64 // slots ever enqueued
	doneSeq int64 // slots ever drained and woken
	// kick cuts the leader's dwell short: sent (non-blocking, buffered 1)
	// when the queue reaches maxBatch or a flush barrier arrives.
	kick chan struct{}

	// Leader-owned (there is at most one dwelling leader at a time), reused
	// across drains. The drained batch itself lives in the pooled
	// batchScratch so pipelined drains don't share it.
	timer *time.Timer

	batches  atomic.Int64 // drained batches (CoalescedBatches)
	records  atomic.Int64 // drained records (CoalescedRecords)
	barriers atomic.Int64 // flush-barrier invocations (FlushBarriers)
}

func newCoalescer(s *Store, window time.Duration, maxBatch int) *coalescer {
	c := &coalescer{s: s, window: window, maxBatch: maxBatch, kick: make(chan struct{}, 1)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// kickLeader wakes a dwelling leader without blocking.
func (c *coalescer) kickLeader() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// report is Report's coalesced path: enqueue, then either wait for a leader
// to drain the slot or become the leader. The loop re-elects leadership the
// way wal.Commit does: every woken waiter whose slot is still pending may
// take over, so the queue always drains as long as any caller is blocked on
// it.
func (c *coalescer) report(o Object) error {
	if herr := c.s.writeAllowed(); herr != nil {
		return herr
	}
	slot := slotPool.Get().(*pendingSlot)
	slot.o, slot.err, slot.done = o, nil, false
	c.mu.Lock()
	c.queue = append(c.queue, slot)
	c.enqSeq++
	if len(c.queue) >= c.maxBatch {
		c.kickLeader()
	}
	for !slot.done {
		// Only take leadership when there is something to drain: a caller
		// whose slot is already in an in-flight batch waits for that batch's
		// finish instead of spinning on an empty queue.
		if c.active || len(c.queue) == 0 {
			c.cond.Wait()
			continue
		}
		c.active = true
		c.mu.Unlock()
		c.lead()
		c.mu.Lock()
	}
	err := slot.err
	c.mu.Unlock()
	slotPool.Put(slot)
	return err
}

// dwell waits up to window for followers to pile on. Skipped when the window
// is zero, the queue already holds a full batch, or a flush barrier is
// waiting; cut short by kickLeader. The timer is leader-owned and reused.
func (c *coalescer) dwell() {
	if c.window <= 0 {
		return
	}
	// Clear a stale kick so this dwell can wait its full window.
	select {
	case <-c.kick:
	default:
	}
	c.mu.Lock()
	skip := len(c.queue) >= c.maxBatch || c.barrier > 0
	c.mu.Unlock()
	if skip {
		return
	}
	if c.timer == nil {
		c.timer = time.NewTimer(c.window)
	} else {
		c.timer.Reset(c.window)
	}
	select {
	case <-c.kick:
		if !c.timer.Stop() {
			<-c.timer.C
		}
	case <-c.timer.C:
	}
}

// lead runs one leader turn. Called with c.active held (set by the caller)
// and c.mu released. The turn has two halves: under leadership — dwell, take
// the batch, apply it, append its WAL record; after handing leadership back —
// wait out the sync policy, attribute per-slot errors, wake the waiters, run
// once-per-batch maintenance. The handoff point is what pipelines drains
// around the fsync, and it also keeps a bootstrap swap (afterReports) from
// stalling the next drain's election.
func (c *coalescer) lead() {
	c.dwell()
	sc := c.s.getBatchScratch()
	c.mu.Lock()
	n := len(c.queue)
	if n > c.maxBatch {
		n = c.maxBatch
	}
	sc.slots = append(sc.slots[:0], c.queue[:n]...)
	rest := copy(c.queue, c.queue[n:])
	for i := rest; i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = c.queue[:rest]
	c.mu.Unlock()

	res := c.s.coalescedPhase1(sc)
	c.batches.Add(1)
	c.records.Add(int64(n))

	c.mu.Lock()
	c.active = false
	c.cond.Broadcast()
	c.mu.Unlock()

	c.s.coalescedFinish(sc, res)

	c.mu.Lock()
	for _, sl := range sc.slots {
		sl.done = true
	}
	c.doneSeq += int64(n)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.s.putBatchScratch(sc)
	c.s.afterReports(res.evalN)
}

// coalResult carries a drained batch's apply/append outcome from the
// leadership half of the turn to the post-handoff half.
type coalResult struct {
	err     error // apply-path error (first shard error)
	lsn     uint64
	werr    error // WAL append error
	evalN   int   // records actually applied and logged
	durable bool
	health  bool // store unhealthy: slots already carry the error
}

// coalescedPhase1 is the leadership half of a drain: the slots' records
// through the batched apply and one TypeReportBatch append via the pooled
// encode buffer, all under the shared commit lock — exactly
// reportBatchDurable's discipline, so a checkpoint capture can never split
// the batch. It does NOT wait for durability; that is coalescedFinish's job,
// after leadership has been handed back.
func (s *Store) coalescedPhase1(sc *batchScratch) coalResult {
	var res coalResult
	if herr := s.writeAllowed(); herr != nil {
		for _, sl := range sc.slots {
			sl.err = herr
		}
		res.health = true
		return res
	}
	sc.objs = sc.objs[:0]
	for _, sl := range sc.slots {
		sc.objs = append(sc.objs, sl.o)
	}
	d := s.dur
	res.durable = d != nil
	if res.durable {
		d.commitMu.RLock()
	}
	res.evalN, res.err = s.applyReportBatch(sc.objs, sc)
	if res.durable && res.evalN > 0 {
		buf := wal.GetBuf()
		*buf = wal.AppendReportBatch((*buf)[:0], sc.eval)
		res.lsn, res.werr = d.wal.Append(wal.TypeReportBatch, *buf)
		wal.PutBuf(buf)
	}
	if res.durable {
		d.commitMu.RUnlock()
	}
	return res
}

// coalescedFinish completes a drained batch after leadership handoff: one
// wait on the sync policy, per-slot error attribution, health-fault
// classification.
func (s *Store) coalescedFinish(sc *batchScratch, res coalResult) {
	if res.health {
		return
	}
	var cerr error
	if res.durable && res.werr == nil && res.evalN > 0 {
		cerr = s.dur.wal.Commit(res.lsn)
	}
	s.attributeSlots(sc, res.werr, cerr)
	if res.durable {
		s.noteIOFault(res.werr)
		s.noteIOFault(cerr)
		s.noteIOFault(res.err)
		if res.evalN > 0 && res.werr == nil && cerr == nil {
			s.dur.noteRecords(s, 1)
		}
	}
}

// attributeSlots hands each drained slot its own error from the
// applied-prefix bookkeeping: within a shard the drained records applied in
// FIFO order, so a slot's position among its shard's records says whether it
// landed (then only a durability failure can fail it), hit the shard's first
// error, or was never attempted because an earlier record of its shard
// failed.
func (s *Store) attributeSlots(sc *batchScratch, werr, cerr error) {
	single := len(s.shards) == 1
	for i := range sc.cursor {
		sc.cursor[i] = 0
	}
	for _, sl := range sc.slots {
		si := 0
		if !single {
			si = s.shardIndex(sl.o.ID)
		}
		pos := sc.cursor[si]
		sc.cursor[si]++
		switch {
		case pos < sc.applied[si]:
			if werr != nil {
				sl.err = werr
			} else {
				sl.err = cerr
			}
		case sc.errs[si] != nil && pos == sc.applied[si]:
			sl.err = sc.errs[si]
		default:
			sl.err = fmt.Errorf("vpindex: coalesced report of object %d skipped after an earlier failure in its shard: %w", sl.o.ID, sc.errs[si])
		}
	}
}

// flush is the write-path barrier: it blocks until every Report enqueued
// before the call has been drained and acknowledged, so the verb that
// follows observes all of them. It does not wait for Reports enqueued after
// it — under sustained ingest the queue may never be empty, and a barrier
// only owes ordering to its past. Cheap (one mutex round-trip) when the
// coalescer is idle.
func (c *coalescer) flush() {
	c.mu.Lock()
	target := c.enqSeq
	if c.doneSeq < target {
		c.barrier++
		c.kickLeader()
		for c.doneSeq < target {
			c.cond.Wait()
		}
		c.barrier--
	}
	c.mu.Unlock()
}

// coalFlush runs the flush barrier (and counts it) for the non-Report write
// verbs, Checkpoint, and Close. No-op when coalescing is off or during
// recovery replay (the queue is empty then by construction, and replayed
// verbs must not inflate the barrier counter).
func (s *Store) coalFlush() {
	c := s.coal
	if c == nil {
		return
	}
	if d := s.dur; d != nil && d.recovering.Load() {
		return
	}
	c.barriers.Add(1)
	c.flush()
}

// IngestStats reports the write coalescer's counters; ok is false when
// WithWriteCoalescing is off. The same counters surface through
// DurabilityStats for durable stores.
type IngestStats struct {
	// CoalescedBatches / CoalescedRecords count drained batches and the
	// Reports they carried; their ratio is the realized batch size.
	CoalescedBatches int64
	CoalescedRecords int64
	// FlushBarriers counts barrier waits run by the non-Report write verbs
	// (Insert/Update/Remove/ReportBatch), Checkpoint, and Close.
	FlushBarriers int64
}

// IngestStats returns the coalescer's counters, and whether write
// coalescing is enabled at all.
func (s *Store) IngestStats() (IngestStats, bool) {
	c := s.coal
	if c == nil {
		return IngestStats{}, false
	}
	return IngestStats{
		CoalescedBatches: c.batches.Load(),
		CoalescedRecords: c.records.Load(),
		FlushBarriers:    c.barriers.Load(),
	}, true
}
