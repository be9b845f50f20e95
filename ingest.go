package vpindex

import (
	"cmp"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the write coalescer behind WithWriteCoalescing: a
// leader-drained ingest pipeline that turns concurrent Report calls into one
// batched apply plus one WAL record, while keeping Report's synchronous,
// per-record-error contract.
//
// The discipline is the same leader/follower election internal/wal's group
// commit uses, one layer up: callers enqueue a pooled pending slot into a
// FIFO and block; whoever finds no active leader and a non-empty queue
// becomes it, dwells up to the configured window for stragglers (cut short
// when the queue reaches maxBatch or a flush barrier arrives), drains up to
// maxBatch slots, and runs them as one batch — one partition-parallel apply
// (applyReportBatch), one merged subscription delta, one
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
// Ordering: the FIFO drain preserves per-object order (a batch applies an
// id's records in batch order, and the earlier of two Reports of one object
// is never drained later than the second). Cross-verb order is
// preserved by flush barriers: Remove/Insert/Update/ReportBatch, Checkpoint,
// and Close first wait for every previously enqueued Report to be
// acknowledged, so the exclusive commit-lock semantics and the recovery
// invariants are untouched. During recovery replay the coalescer is bypassed
// entirely (replayed records must not re-batch), and a disabled coalescer
// leaves Report on the direct path.
//
// Error attribution: applyReportBatch reports every record's own outcome. A
// slot whose record landed gets nil (or the batch's WAL append/commit error —
// exactly what the direct path would return); a slot whose record was
// rejected or failed gets that error, and its failure does not stop the rest
// of the batch.

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
	sc := c.s.scratchPool.Get().(*batchScratch)
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
	c.s.afterReports(res.n)
}

// coalescedPhase1 is the leadership half of a drain: the slots' records
// through applyReportBatch — one apply, one TypeReportBatch append. It does
// NOT wait for durability; that is coalescedFinish's job, after leadership has
// been handed back.
func (s *Store) coalescedPhase1(sc *batchScratch) batchResult {
	if herr := s.writeAllowed(); herr != nil {
		sc.errs = sc.errs[:0]
		for range sc.slots {
			sc.errs = append(sc.errs, herr)
		}
		return batchResult{}
	}
	sc.objs = sc.objs[:0]
	for _, sl := range sc.slots {
		sc.objs = append(sc.objs, sl.o)
	}
	return s.applyReportBatch(sc.objs, sc)
}

// coalescedFinish completes a drained batch after leadership handoff: one
// wait on the sync policy, fault classification, and each slot's own outcome
// — its record's rejection or failure, else, since it landed, whatever kept
// the batch from becoming durable.
func (s *Store) coalescedFinish(sc *batchScratch, res batchResult) {
	cerr := s.commitBatch(res)
	for i, sl := range sc.slots {
		sl.err = cmp.Or(sc.errs[i], res.werr, cerr)
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
