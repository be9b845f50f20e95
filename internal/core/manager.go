package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/parallel"
)

// PartitionSpec describes one partition to the index factory.
type PartitionSpec struct {
	// Domain is the data-space bound in the partition's own coordinate
	// frame: the rotated bound of the world domain for DVA partitions, the
	// world domain itself for identity-rotation partitions. Grid-based
	// indexes (the Bx-tree) size their grids from it.
	Domain geom.Rect
	// Axis is the DVA direction (zero vector for every other partition).
	Axis geom.Vec2
	// IsOutlier marks the DVA layout's outlier partition.
	IsOutlier bool
	// Frame is the full partition frame the spec was built from.
	Frame Frame
}

// IndexFactory builds the underlying moving-object index for one partition.
// The factory decides where its pages are cached: the figure harness
// (internal/bench) shares one buffer pool across the partitions, so the
// paper's 50-page RAM budget covers the whole structure, while the Store
// gives each partition a pool of its own.
type IndexFactory func(spec PartitionSpec) (model.Index, error)

// ManagerConfig parameterizes the VP index manager.
type ManagerConfig struct {
	// Domain is the world data space (Table 1: 100,000 x 100,000 m).
	Domain geom.Rect
	// SearchParallelism bounds the worker pool that fans Search/SearchKNN
	// out across the partitions. 0 means GOMAXPROCS; 1 forces the strictly
	// sequential partition loop (the baseline the parallel path must match
	// byte for byte).
	SearchParallelism int
	// Stripes is the number of lock stripes of the id→record table (default 1).
	Stripes int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Domain.IsEmpty() || c.Domain.Area() == 0 {
		c.Domain = geom.R(0, 0, 100000, 100000)
	}
	if c.Stripes <= 0 {
		c.Stripes = 1
	}
	return c
}

// partition is one live partition: the underlying index plus the frame
// transform.
type partition struct {
	mu       sync.RWMutex // guards idx: one writer at a time; queries hold it shared
	spec     PartitionSpec
	idx      model.Index
	rot      geom.Mat2 // world -> partition frame
	identity bool      // rot is the identity: skip query/object transforms
}

// insert stores o (world frame) into the partition, transforming into its
// coordinate frame first ("a simple matrix multiplication between the
// coordinates of o and the 1st PC of imin"). Caller holds p.mu.
func (p *partition) insert(o model.Object) error {
	if p.identity {
		return p.idx.Insert(o)
	}
	return p.idx.Insert(o.Transform(p.rot))
}

// delete removes o (world frame) from the partition. Caller holds p.mu.
func (p *partition) delete(o model.Object) error {
	if p.identity {
		return p.idx.Delete(o)
	}
	return p.idx.Delete(o.Transform(p.rot))
}

// record tracks where an object lives and its last known state; the paper's
// "simple lookup table" used by deletion (Section 5.3) and by the exact
// refinement step of Algorithm 3.
type record struct {
	obj  model.Object
	part int
}

// tableStripe is one lock stripe of the id→record table.
type tableStripe struct {
	mu   sync.RWMutex
	objs map[model.ObjectID]record
}

// Manager is the VP technique's index manager, generalized over
// partitioning objectives: one index per partition frame — k rotated DVA
// indexes plus an outlier index, concentric speed-band indexes, or a single
// unpartitioned index — behind the model.Index interface, with the id→record
// lookup table of Section 5.3 in front of them. It is safe for concurrent
// use.
//
// # Lock order
//
// The order is written down once, on the package-root Store, whose locks sit
// above these: batchMu → table stripe (by id hash, ascending) → partition.
// A write (Apply; a multi-record one queues on batchMu first) holds
// the stripes of its ids exclusively from start to finish: under them it
// reads the old records, routes the new ones, updates the table and runs the
// caller's Settler on each landed record; the partition locks its
// deletes and inserts touch are taken one at a time. A query holds every
// stripe and then every partition shared, so it sees the table and all
// indexes at one instant between writes: an object migrating between
// partitions is never observed missing (the locking concern of Section 5.3)
// and the table-driven refinement of Search stays exact. Two writers overlap
// whenever their ids are on different stripes and their records in different
// partitions: index-write concurrency is bounded by the partition count.
//
// Routing is a pure function of the analysis the manager was built from
// (Analysis.RouteVel): a partition's tau changes only when a new analysis
// builds a new manager (Section 5.5's refresh is the repartition round).
type Manager struct {
	cfg     ManagerConfig
	an      Analysis
	pars    []partition // one per analysis frame, in frame order
	stripes []tableStripe

	// batchMu queues multi-record Applies before the stripes. A batch holds
	// every stripe it touches for a whole batch of index updates, and a
	// writer waiting on an RWMutex lets no new reader past it: a second batch
	// queued on the stripes would hold every query back behind both batches.
	batchMu sync.Mutex

	scratch  sync.Pool // *applyScratch
	qscratch sync.Pool // *queryScratch
}

var _ model.Index = (*Manager)(nil)

// buildPartitions constructs the live partition set for a validated
// analysis: one index per frame, rotated domains for DVA frames.
func buildPartitions(an Analysis, cfg ManagerConfig, factory IndexFactory) ([]partition, error) {
	pars := make([]partition, len(an.Frames))
	for i, f := range an.Frames {
		rot := f.Rotation()
		identity := f.Identity()
		domain := cfg.Domain
		if !identity {
			domain = cfg.Domain.BoundOfTransformed(rot)
		}
		spec := PartitionSpec{
			Domain:    domain,
			Axis:      f.Axis,
			IsOutlier: f.IsOutlier,
			Frame:     f,
		}
		idx, err := factory(spec)
		if err != nil {
			return nil, fmt.Errorf("core: building partition %d: %w", i, err)
		}
		p := &pars[i]
		p.spec, p.idx, p.rot, p.identity = spec, idx, rot, identity
	}
	return pars, nil
}

// NewManager builds the partition set from a completed velocity analysis,
// whatever objective produced it.
func NewManager(an Analysis, cfg ManagerConfig, factory IndexFactory) (*Manager, error) {
	cfg = cfg.withDefaults()
	if err := an.Validate(); err != nil {
		return nil, err
	}
	pars, err := buildPartitions(an, cfg, factory)
	if err != nil {
		return nil, err
	}
	an.Frames = slices.Clone(an.Frames) // the caller's copy cannot reroute

	m := &Manager{
		cfg:     cfg,
		an:      an,
		pars:    pars,
		stripes: make([]tableStripe, cfg.Stripes),
	}
	for i := range m.stripes {
		m.stripes[i].objs = make(map[model.ObjectID]record)
	}
	np, ns := len(pars), cfg.Stripes
	m.scratch.New = func() any {
		return &applyScratch{lists: make([][]int32, np), next: make([]atomic.Int32, np), locked: make([]bool, ns)}
	}
	m.qscratch.New = func() any {
		return &queryScratch{ids: make([][]model.ObjectID, np)}
	}
	return m, nil
}

// StripeOf hashes an id to one of n table stripes. Fibonacci hashing spreads
// the dense sequential id ranges real device fleets use evenly.
func StripeOf(id model.ObjectID, n int) int {
	if n == 1 {
		return 0
	}
	return int(uint64(id) * 0x9E3779B97F4A7C15 % uint64(n))
}

func (m *Manager) stripeIndex(id model.ObjectID) int { return StripeOf(id, len(m.stripes)) }

// WithStripe runs fn holding table stripe i exclusively: the lock under which
// a caller keeps its own per-stripe state beside the table's.
func (m *Manager) WithStripe(i int, fn func()) {
	st := &m.stripes[i]
	st.mu.Lock()
	defer st.mu.Unlock()
	fn()
}

// rlock takes every stripe and, for a query, then every partition, shared.
func (m *Manager) rlock(query bool) {
	for i := range m.stripes {
		m.stripes[i].mu.RLock()
	}
	for i := 0; query && i < len(m.pars); i++ {
		m.pars[i].mu.RLock()
	}
}

func (m *Manager) runlock(query bool) {
	for i := 0; query && i < len(m.pars); i++ {
		m.pars[i].mu.RUnlock()
	}
	for i := range m.stripes {
		m.stripes[i].mu.RUnlock()
	}
}

// Name implements model.Index.
func (m *Manager) Name() string { return "vp" }

// Len implements model.Index.
func (m *Manager) Len() int {
	m.rlock(false)
	defer m.runlock(false)
	n := 0
	for i := range m.stripes {
		n += len(m.stripes[i].objs)
	}
	return n
}

// IO implements model.Index for the layout where all partitions share one
// buffer pool (internal/bench): any partition's counters are the manager's.
// The Store, with a pool per partition, aggregates across its pools itself.
func (m *Manager) IO() model.IOStats { return m.pars[len(m.pars)-1].idx.IO() }

// Analysis returns the velocity analysis the manager was built from and
// routes by.
func (m *Manager) Analysis() Analysis {
	an := m.an
	an.Frames = slices.Clone(an.Frames)
	return an
}

// PartitionInfo is the read-only view of one partition used by experiments
// and diagnostics.
type PartitionInfo struct {
	Spec  PartitionSpec
	Index model.Index
	Rot   geom.Mat2
	Frame Frame
	Tau   float64
	Size  int
}

// Partitions snapshots the partition set at one instant: the sizes sum to
// Len.
func (m *Manager) Partitions() []PartitionInfo {
	m.rlock(true)
	defer m.runlock(true)
	out := make([]PartitionInfo, len(m.pars))
	for i := range m.pars {
		p := &m.pars[i]
		out[i] = PartitionInfo{Spec: p.spec, Index: p.idx, Rot: p.rot, Frame: p.spec.Frame, Tau: p.spec.Frame.Tau, Size: p.idx.Len()}
	}
	return out
}

// Verb says how Apply treats the id of each record it is given.
type Verb uint8

const (
	Upsert    Verb = iota // insert a new id, replace a known one (Report)
	InsertNew             // reject a known id with model.ErrDuplicate (Insert)
	Replace               // reject an unknown id with model.ErrNotFound (Update)
	Remove                // delete by id alone; unknown: model.ErrNotFound (Delete)
)

// applyChunk is how many index operations a worker of Apply's parallel phase
// claims from one partition at a time; maxRound how many records one round
// plans at once, which bounds the scratch a large batch needs.
const (
	applyChunk = 32
	maxRound   = 4096
)

// writeState is what Apply tracks per record of a round. A record's delete
// and insert may run on different workers; each writes its own two fields.
type writeState struct {
	old     record // the table entry the write replaced; old.part < 0: none
	part    int    // partition of the new record; < 0 for a removal or a rejected write
	delDone bool
	insDone bool
	err     error // the rejection of the resolve phase, or the failed delete
	insErr  error
}

// applyScratch is Apply's pooled working state.
type applyScratch struct {
	one    [1]model.Object // the single-record verbs' batch: keeps the record off the heap
	recs   []writeState
	lists  [][]int32 // per partition, in batch order: record index<<1, |1 for its insert
	next   []atomic.Int32
	locked []bool  // stripes this Apply holds
	errs   []error // the outcomes a Settler needs when the caller passed none
	seen   map[model.ObjectID]struct{}
}

// A Settler is told of every record an Apply landed — for a removal, a
// record carrying only the id — in batch order, once every round of the
// Apply has settled, while the record's table stripe is still held.
type Settler interface {
	Settled(stripe int, o model.Object)
}

// Apply is the one routine that writes to the partition indexes; every verb
// of the Manager is a call of it. It applies objs under verb and returns how
// many landed and the first failure in batch order; errs, if non-nil, has
// len(objs) and receives each record's own outcome. Records are independent:
// a rejected or failed record leaves its id as it was and stops nobody else,
// and an id that occurs several times is applied in batch order.
//
// Under the stripes of the batch's ids it works in rounds of three phases.
// Resolve, in batch order: look the id up, reject what the verb or a
// non-finite field rules out, route the new record by the analysis, update
// the table, and append the delete of the old record and
// the insert of the new one to their partitions' lists. Apply: run the lists,
// each in order under its partition's lock, in parallel (see drain). Settle:
// undo the other half of a record whose index operation failed and restore
// its table entry. A round ends before the second occurrence of an id, so
// within one a record's two halves may run in either order. A non-nil step
// then settles each landed record (see Settler).
func (m *Manager) Apply(verb Verb, objs []model.Object, errs []error, step Settler) (applied int, err error) {
	sc := m.scratch.Get().(*applyScratch)
	applied, err = m.apply(verb, objs, errs, step, sc)
	m.scratch.Put(sc)
	return applied, err
}

// ApplyOne is Apply for a single record.
func (m *Manager) ApplyOne(verb Verb, o model.Object, step Settler) error {
	sc := m.scratch.Get().(*applyScratch)
	sc.one[0] = o
	_, err := m.apply(verb, sc.one[:], nil, step, sc)
	m.scratch.Put(sc)
	return err
}

func (m *Manager) apply(verb Verb, objs []model.Object, errs []error, step Settler, sc *applyScratch) (applied int, first error) {
	ownErrs := errs == nil && step != nil
	if ownErrs {
		if cap(sc.errs) < len(objs) {
			sc.errs = make([]error, len(objs))
		}
		errs = sc.errs[:len(objs)]
	}
	if len(objs) > 1 {
		m.batchMu.Lock()
		defer m.batchMu.Unlock()
	}
	for _, o := range objs {
		sc.locked[m.stripeIndex(o.ID)] = true
	}
	for i, held := range sc.locked {
		if held {
			LockBusy(&m.stripes[i].mu)
		}
	}
	for start := 0; start < len(objs); {
		round := m.resolve(verb, objs[start:], sc)
		m.run(sc, objs[start:start+round])
		for i := range sc.recs {
			rs := &sc.recs[i]
			if rs.err != nil || rs.insErr != nil {
				m.undo(rs, objs[start+i])
				if first == nil {
					first = rs.err
				}
			} else {
				applied++
			}
			if errs != nil {
				errs[start+i] = rs.err
			}
		}
		start += round
	}
	if step != nil {
		for i, o := range objs {
			if errs[i] == nil {
				step.Settled(m.stripeIndex(o.ID), o)
			}
		}
	}
	if ownErrs {
		clear(errs)
	}
	for i, held := range sc.locked {
		if held {
			m.stripes[i].mu.Unlock()
			sc.locked[i] = false
		}
	}
	return applied, first
}

// resolve is Apply's first phase for the round starting at objs[0]: it fills
// sc.recs and sc.lists and returns the round's length.
func (m *Manager) resolve(verb Verb, objs []model.Object, sc *applyScratch) int {
	for p := range sc.lists {
		sc.lists[p] = sc.lists[p][:0]
	}
	sc.recs = sc.recs[:0]
	n := min(len(objs), maxRound)
	if n > 1 { // clearing costs by the map's capacity: not on a single record's path
		if sc.seen == nil {
			sc.seen = make(map[model.ObjectID]struct{})
		}
		clear(sc.seen)
	}
	for i, o := range objs[:n] {
		if n > 1 {
			if _, again := sc.seen[o.ID]; again {
				return i
			}
			sc.seen[o.ID] = struct{}{}
		}
		st := &m.stripes[m.stripeIndex(o.ID)]
		old, known := st.objs[o.ID]
		sc.recs = append(sc.recs, writeState{old: record{part: -1}, part: -1})
		rs := &sc.recs[i]
		switch {
		case verb == InsertNew && known:
			rs.err = fmt.Errorf("core: insert of object %d: %w", o.ID, model.ErrDuplicate)
		case verb == Replace && !known:
			rs.err = fmt.Errorf("core: update of object %d: %w", o.ID, model.ErrNotFound)
		case verb == Remove && !known:
			rs.err = fmt.Errorf("core: delete of object %d: %w", o.ID, model.ErrNotFound)
		case verb != Remove && !(o.Pos.IsFinite() && o.Vel.IsFinite() && !math.IsNaN(o.T) && !math.IsInf(o.T, 0)):
			rs.err = fmt.Errorf("core: non-finite object %v", o)
		}
		if rs.err != nil {
			continue
		}
		if known {
			rs.old = old
			sc.lists[old.part] = append(sc.lists[old.part], int32(i)<<1)
		}
		if verb == Remove {
			delete(st.objs, o.ID)
			continue
		}
		rs.part = m.an.RouteVel(o.Vel)
		sc.lists[rs.part] = append(sc.lists[rs.part], int32(i)<<1|1)
		st.objs[o.ID] = record{obj: o, part: rs.part}
	}
	return n
}

// busyWait bounds LockBusy's yielding: about two index updates.
const busyWait = 50 * time.Microsecond

// LockBusy acquires a lock held for about one index update: it yields the
// processor for up to busyWait before it parks, because parking and waking a
// goroutine costs more than such a hold lasts (measured: two writers on two
// cores lose a third of their throughput to wake-ups once four in ten of
// their writes collide). Longer holders are then waited for the ordinary way,
// as is everyone when other goroutines want the processor.
func LockBusy(mu interface {
	TryLock() bool
	Lock()
}) {
	if mu.TryLock() {
		return
	}
	for start := time.Now(); time.Since(start) < busyWait; {
		runtime.Gosched()
		if mu.TryLock() {
			return
		}
	}
	mu.Lock()
}

// exec runs one planned index operation under its partition's lock.
func (m *Manager) exec(sc *applyScratch, p *partition, code int32, objs []model.Object) {
	rs := &sc.recs[code>>1]
	if code&1 == 0 {
		rs.err = p.delete(rs.old.obj)
		rs.delDone = rs.err == nil
	} else {
		rs.insErr = p.insert(objs[code>>1])
		rs.insDone = rs.insErr == nil
	}
}

// run is Apply's second phase.
func (m *Manager) run(sc *applyScratch, objs []model.Object) {
	total, busy := 0, 0
	for p, list := range sc.lists {
		sc.next[p].Store(0)
		total += len(list)
		if len(list) > 0 {
			busy++
		}
	}
	workers := min(runtime.GOMAXPROCS(0), busy, (total+applyChunk-1)/applyChunk)
	if workers <= 1 {
		// Too little work to share, a single record included: run it in batch
		// order, each record's delete before its insert — over one shared
		// pool (internal/bench) that is the page-access order of the paper's
		// sequential structure.
		for i := range sc.recs {
			rs := &sc.recs[i]
			for code, part := range [2]int{rs.old.part, rs.part} {
				// A record whose delete failed keeps its old entry: no second one.
				if part >= 0 && rs.err == nil {
					LockBusy(&m.pars[part].mu)
					m.exec(sc, &m.pars[part], int32(i<<1|code), objs)
					m.pars[part].mu.Unlock()
				}
			}
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			m.drain(sc, objs)
		}()
	}
	m.drain(sc, objs)
	wg.Wait()
}

// drain is one worker of the parallel apply phase: until no operation is
// left unclaimed, lock the partition with the most unclaimed operations among
// those whose lock is free (waiting for the fullest only when none is), claim
// the next applyChunk of its list, and run them — so the makespan follows the
// work, not the partition sizes.
func (m *Manager) drain(sc *applyScratch, objs []model.Object) {
	left := func(p int) int { return len(sc.lists[p]) - int(sc.next[p].Load()) }
	tried := make([]bool, len(sc.lists))
	for {
		clear(tried)
		fullest, got := -1, -1
		for got < 0 {
			p := -1
			for q := range sc.lists {
				if !tried[q] && left(q) > 0 && (p < 0 || left(q) > left(p)) {
					p = q
				}
			}
			if p < 0 {
				break
			}
			if fullest < 0 {
				fullest = p
			}
			if tried[p] = true; m.pars[p].mu.TryLock() {
				got = p
			}
		}
		if fullest < 0 {
			return
		}
		if got < 0 {
			got = fullest
			m.pars[got].mu.Lock()
		}
		// next[got] moves only under the partition's lock, so the chunks of
		// one list are claimed, and run, strictly in order.
		list, lo := sc.lists[got], int(sc.next[got].Load())
		hi := min(lo+applyChunk, len(list))
		sc.next[got].Store(int32(hi))
		for _, code := range list[lo:hi] {
			m.exec(sc, &m.pars[got], code, objs)
		}
		m.pars[got].mu.Unlock()
	}
}

// undo is Apply's settle step for a record that was rejected or whose index
// operation failed: take back the half that succeeded, so the indexes hold
// the old record again (best effort — a failing rollback is reported with the
// failure), and restore the table entry.
func (m *Manager) undo(rs *writeState, o model.Object) {
	if rs.err == nil {
		rs.err = rs.insErr
	}
	if rs.old.part < 0 && rs.part < 0 {
		return // rejected by resolve: nothing was touched
	}
	var rerr error
	if rs.insDone {
		p := &m.pars[rs.part]
		p.mu.Lock()
		rerr = p.delete(o)
		p.mu.Unlock()
	}
	if rs.delDone {
		p := &m.pars[rs.old.part]
		p.mu.Lock()
		rerr = errors.Join(rerr, p.insert(rs.old.obj))
		p.mu.Unlock()
	}
	st := &m.stripes[m.stripeIndex(o.ID)]
	if rs.old.part >= 0 {
		st.objs[o.ID] = rs.old
	} else {
		delete(st.objs, o.ID)
	}
	if rerr != nil {
		rs.err = fmt.Errorf("core: write of object %d failed (%w) and rollback failed (%v)", o.ID, rs.err, rerr)
	}
}

// Insert implements model.Index.
func (m *Manager) Insert(o model.Object) error { return m.ApplyOne(InsertNew, o, nil) }

// InsertBulk loads many new objects in one Apply, its partitions filled in
// parallel: the migration hook of the Store's partition swap, and the
// loaders' way to amortize locking. A duplicate is reported and skipped.
func (m *Manager) InsertBulk(objs []model.Object) error {
	_, err := m.Apply(InsertNew, objs, nil, nil)
	return err
}

// Delete implements model.Index. Only the ID is consulted: the partition
// and exact stored record come from the lookup table.
func (m *Manager) Delete(o model.Object) error { return m.ApplyOne(Remove, o, nil) }

// Update implements model.Index: deletion followed by insertion, migrating
// the object when its direction of travel changed (Section 5.3). Only old.ID
// is consulted; the stored record comes from the lookup table.
func (m *Manager) Update(old, new model.Object) error {
	if new.ID != old.ID {
		return fmt.Errorf("core: update changes object id %d -> %d", old.ID, new.ID)
	}
	return m.ApplyOne(Replace, new, nil)
}

// Report applies an ID-keyed upsert: insert if the object is new, otherwise
// an update driven entirely by the lookup table.
func (m *Manager) Report(o model.Object) error { return m.ApplyOne(Upsert, o, nil) }

// ReportBatch applies many upserts in one Apply and returns how many landed
// and the first failure.
func (m *Manager) ReportBatch(objs []model.Object) (applied int, err error) {
	return m.Apply(Upsert, objs, nil, nil)
}

// queryScratch is the pooled working state of Search: one id buffer per
// partition, recycled across queries.
type queryScratch struct {
	ids [][]model.ObjectID
}

// appendSearcher is the range search of an index that can fill a buffer of
// the caller's (both built-in trees); any other index is asked through
// model.Index.Search and its fresh slice used as is.
type appendSearcher interface {
	SearchAppend(dst []model.ObjectID, q model.RangeQuery) ([]model.ObjectID, error)
}

// Search implements model.Index: Algorithm 3. The query — which the caller
// has validated — is transformed into each rotated partition frame (its
// region bounded by an axis-aligned MBR there), the partitions are probed by
// a bounded worker pool (cfg.SearchParallelism) into per-partition result
// buffers, and after the joins the buffers are merged in partition order, so
// the output is byte-identical to the sequential loop. The fan-out is what
// keeps the hold on every stripe and partition lock short; it is measured,
// not assumed (ROADMAP item 12(vi)). Identity-rotation partitions — the DVA
// layout's outlier index, every speed band, the unpartitioned objective —
// take the query unchanged.
//
// The merge is the exact refinement of Algorithm 3 line 8, driven entirely
// by the lookup table: a candidate id counts only if the table places it in
// the partition that returned it (which also makes cross-partition
// duplicates structurally impossible — no seen-set needed). Rotated-frame
// candidates of rectangular queries are re-checked against the original
// query in the world frame, because a rotated rectangle is only
// conservatively bounded by its MBR in the partition frame. Circular
// queries skip that re-check on the hot path: rotations are isometries, so
// the circle survives the frame change exactly and the partition index's
// own refinement already was the exact world-frame predicate.
// Identity-rotation candidates always skip it: their partition ran the
// query unchanged.
func (m *Manager) Search(q model.RangeQuery) ([]model.ObjectID, error) {
	m.rlock(true)
	defer m.runlock(true)
	sc := m.qscratch.Get().(*queryScratch)
	defer m.qscratch.Put(sc)
	lists := sc.ids
	err := parallel.Do(len(m.pars), m.cfg.SearchParallelism, func(i int) (err error) {
		p := &m.pars[i]
		pq := q
		if !p.identity {
			pq = q.Transform(p.rot)
		}
		if as, ok := p.idx.(appendSearcher); ok {
			lists[i], err = as.SearchAppend(lists[i][:0], pq)
		} else {
			lists[i], err = p.idx.Search(pq)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ids := range lists {
		total += len(ids)
	}
	world := model.NewMatcher(q)
	exactInFrame := q.IsCircle()
	out := make([]model.ObjectID, 0, total)
	for i, ids := range lists {
		recheck := !m.pars[i].identity && !exactInFrame
		for _, id := range ids {
			rec, ok := m.stripes[m.stripeIndex(id)].objs[id]
			if !ok || rec.part != i {
				continue
			}
			if recheck && !world.Matches(rec.obj) {
				continue
			}
			out = append(out, id)
		}
	}
	return out, nil
}

// Objects snapshots every live record in the world frame (iteration order
// is unspecified). This is the migration surface of a partition rebuild:
// the Store reads one manager's population and InsertBulks it into a
// freshly built one.
func (m *Manager) Objects() []model.Object {
	m.rlock(false)
	defer m.runlock(false)
	var out []model.Object
	for i := range m.stripes {
		for _, rec := range m.stripes[i].objs {
			out = append(out, rec.obj)
		}
	}
	return out
}

// VelocitySample returns the current velocities of the live objects in
// ascending ObjectID order, or, when there are more than n, n evenly spaced
// picks of them: the sample a velocity analysis runs over, one velocity per
// object whatever order or how often the objects reported. It holds one
// table stripe's read lock at a time, so writers on the other stripes keep
// landing while it reads.
func (m *Manager) VelocitySample(n int) []geom.Vec2 {
	type pair struct {
		id  model.ObjectID
		vel geom.Vec2
	}
	var pairs []pair
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.RLock()
		for id, rec := range st.objs {
			pairs = append(pairs, pair{id, rec.obj.Vel})
		}
		st.mu.RUnlock()
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.id, b.id) })
	out := make([]geom.Vec2, min(len(pairs), max(n, 0)))
	for i := range out {
		out[i] = pairs[i*len(pairs)/len(out)].vel
	}
	return out
}

// Get returns the current world-frame record for an object.
func (m *Manager) Get(id model.ObjectID) (model.Object, bool) {
	st := &m.stripes[m.stripeIndex(id)]
	st.mu.RLock()
	rec, ok := st.objs[id]
	st.mu.RUnlock()
	return rec.obj, ok
}

// DriftMax is the objective distance Drift reports when a fresh analysis is
// structurally incomparable to the live partition set (different objective
// kind or partition count): the largest possible axis angle, so any
// positive drift threshold trips and the partitions are rebuilt.
const DriftMax = math.Pi / 2

// Drift returns the objective distance (radians-scaled, in [0, DriftMax])
// between the live partition set and a fresh analysis — the signal Section
// 5.5 says should trigger re-partitioning when "the dominant direction of
// object travel changes significantly", generalized across objectives:
//
//   - KindDVA vs KindDVA: the largest angle between a live axis and its
//     closest fresh axis (each live axis matched independently).
//   - KindSpeed vs KindSpeed: the largest relative shift of a band
//     threshold, scaled by DriftMax so a full-range move compares to axis
//     drift on the same threshold scale.
//   - KindNone vs KindNone: 0 (nothing to drift).
//   - Any kind or partition-count mismatch: DriftMax. This is also the
//     guard against an Analysis with a different K than the live manager —
//     a structurally different candidate always reads as maximally
//     drifted, never as a partial match over mismatched indices.
func (m *Manager) Drift(an Analysis) float64 {
	if an.Kind != m.an.Kind || len(an.Frames) != len(m.pars) {
		return DriftMax
	}
	worst := 0.0
	switch m.an.Kind {
	case KindNone:
		return 0
	case KindSpeed:
		scale := 0.0
		for i := range m.pars {
			if s := m.pars[i].spec.Frame.SpeedMax; !math.IsInf(s, 1) && s > scale {
				scale = s
			}
		}
		for _, f := range an.Frames {
			if !math.IsInf(f.SpeedMax, 1) && f.SpeedMax > scale {
				scale = f.SpeedMax
			}
		}
		if scale == 0 {
			return 0
		}
		for i := range m.pars {
			old, fresh := m.pars[i].spec.Frame.SpeedMax, an.Frames[i].SpeedMax
			if math.IsInf(old, 1) || math.IsInf(fresh, 1) {
				continue // the top band's bound is structural, not a threshold
			}
			if d := math.Abs(old-fresh) / scale * DriftMax; d > worst {
				worst = d
			}
		}
	default: // KindDVA
		for i := range m.pars {
			if m.pars[i].spec.IsOutlier {
				continue
			}
			best := DriftMax
			for _, f := range an.Frames {
				if f.IsOutlier {
					continue
				}
				cos := math.Abs(m.pars[i].spec.Axis.Normalize().Dot(f.Axis.Normalize()))
				if cos > 1 {
					cos = 1
				}
				if a := math.Acos(cos); a < best {
					best = a
				}
			}
			if best > worst {
				worst = best
			}
		}
	}
	return worst
}
