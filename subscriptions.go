package vpindex

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/parallel"
	"repro/internal/wal"
)

// This file is the Store-native continuous-query engine: standing
// subscriptions evaluated incrementally as location reports stream in,
// without re-serializing the striped write path through a wrapper mutex.
//
// # Architecture
//
// The engine composes the internal/monitor evaluation core three ways:
//
//   - The subscription registry (the Subscription templates plus the coarse
//     spatial filter) is read-mostly state under one RWMutex: every report
//     evaluation takes the read lock, only Subscribe/Unsubscribe and filter
//     rebuilds take the write lock.
//   - Result-set membership is sharded by ObjectID with the same hash as
//     the Store's stripes: each evaluation shard owns a monitor.ResultSet
//     under its own mutex, so reports of ids on different stripes evaluate
//     their subscriptions genuinely in parallel.
//   - The coarse filter (internal/monitor.Filter) keeps one grid per
//     velocity class — one per DVA of the current partition epoch plus an
//     isotropic catch-all — so a report only looks at the subscriptions
//     whose horizon-expanded region could contain it, and exact-tests only
//     those its own path comes near. The per-partition τ makes that
//     expansion near-linear in the horizon instead of quadratic in the
//     global maximum speed: the VP analysis paying off a second time, now
//     on the continuous-query path. The Store re-seeds the filter's classes
//     after every partition swap (the bootstrap included).
//
// Deltas are computed outside the stripe locks, from the records the write
// path just applied: a write verb applies its records under the shard lock,
// releases it, and only then reconciles the subscription state. Result sets
// therefore survive repartition and epoch swaps untouched — they reference
// ObjectIDs, not index internals — and a swap never blocks evaluation.
//
// # Ordering and concurrency semantics
//
// Every evaluation batch (one Report, one ReportBatch, one Refresh, one
// Subscribe seed) emits its deltas as a single batch sorted by
// Sub → ID → Kind — the same deterministic contract the monitor package
// established. Batches from concurrent callers interleave in an
// unspecified order. Reports for a single object issued from different
// goroutines may be evaluated in either order (last evaluation wins), and
// a RefreshSubscriptions or Subscribe running concurrently with reports
// applies a query snapshot that may predate the newest of them — either
// way a membership can transiently reflect the earlier state, and the
// next evaluation of the object (or the next quiescent refresh)
// converges it. Drive reports for one object from one goroutine and
// don't overlap refreshes with reports — the differential oracle's
// regime — and streams are exact.

// BackpressurePolicy says what an event emission does when the Events()
// channel buffer is full.
type BackpressurePolicy int

const (
	// BlockOnFull makes the emitting write verb block until the consumer
	// drains the channel: lossless, and the natural back-pressure choice
	// when every event must be observed. A consumer that stops reading
	// stalls the write path.
	BlockOnFull BackpressurePolicy = iota
	// DropOldest drops the oldest buffered events to make room: the write
	// path never blocks on a slow consumer, at the cost of losing the
	// oldest deltas. DroppedEvents counts the losses.
	DropOldest
)

// DefaultEventBuffer is the Events() channel capacity used when
// WithEventBuffer is not given.
const DefaultEventBuffer = 1024

// eventStream is the async delivery channel behind Events(). The mutex
// serializes emitters so one batch's events are contiguous in the channel.
type eventStream struct {
	mu     sync.Mutex
	ch     chan MonitorEvent
	policy BackpressurePolicy
}

// subShard is one evaluation shard: the memberships of the objects whose
// IDs hash here, and the filter's candidate scratch, used only under mu.
type subShard struct {
	mu    sync.Mutex
	rs    *monitor.ResultSet
	cands []SubscriptionID
}

// subEngine is the Store's subscription engine, created lazily by the
// first Subscribe or Events call.
type subEngine struct {
	store *Store

	// regMu guards the subscription registry: subs, filter, nextID. Report
	// evaluation holds it shared; Subscribe/Unsubscribe/SetClasses/Grow
	// hold it exclusively. Lock order: regMu before any subShard.mu.
	regMu  sync.RWMutex
	subs   map[SubscriptionID]Subscription
	filter *monitor.Filter
	nextID SubscriptionID

	// nsubs lets the write-path hook skip evaluation entirely while no
	// subscriptions exist.
	nsubs atomic.Int64

	// clock is the engine's monotonic evaluation clock (float64 bits),
	// advanced by report timestamps and the explicit now of
	// Subscribe/RefreshSubscriptions.
	clock atomic.Uint64

	shards []subShard

	stream  atomic.Pointer[eventStream]
	dropped atomic.Int64

	// notePool recycles noteBatch's per-shard delta scratch (see
	// noteScratch) so sustained batched ingest does not allocate two
	// slices per batch.
	notePool sync.Pool
}

// noteScratch is noteBatch's pooled per-shard scratch: the batch grouped by
// evaluation shard, and the per-shard event and filter-growth slices the
// parallel reconcile writes into before the merge. Those two are nilled on
// return to the pool — they alias reconcile results that escape into the
// merged batch.
type noteScratch struct {
	groups [][]Object
	per    [][]MonitorEvent
	grows  [][]Vec2
}

func newSubEngine(s *Store) *subEngine {
	e := &subEngine{
		store:  s,
		subs:   make(map[SubscriptionID]Subscription),
		filter: monitor.NewFilter(s.cfg.base.Domain, 0),
		shards: make([]subShard, len(s.shards)),
	}
	for i := range e.shards {
		e.shards[i].rs = monitor.NewResultSet()
	}
	return e
}

// engine returns the Store's subscription engine, creating it on first use.
func (s *Store) engine() *subEngine {
	if e := s.subEng.Load(); e != nil {
		return e
	}
	e := newSubEngine(s)
	if !s.subEng.CompareAndSwap(nil, e) {
		return s.subEng.Load()
	}
	// Created after a bootstrap or with an upfront sample: seed the filter
	// classes from the current analysis.
	s.refreshSubClasses()
	return e
}

// refreshSubClasses re-seeds the engine filter's velocity classes from the
// Store's current analysis. Called with no Store stripe locks held — from
// engine creation and at the end of every partition swap — because it takes
// the registry write lock, which report evaluation holds shared while
// reading shard state.
func (s *Store) refreshSubClasses() {
	e := s.subEng.Load()
	if e == nil {
		return
	}
	an, ok := s.Analysis()
	if !ok {
		return
	}
	// Only DVA frames carry a useful anisotropy bound; speed bands and the
	// unpartitioned objective leave the filter on its isotropic catch-all.
	classes := make([]monitor.VelocityClass, 0, len(an.Frames))
	if an.Kind == core.KindDVA {
		for _, f := range an.Frames {
			if f.IsOutlier {
				continue
			}
			classes = append(classes, monitor.VelocityClass{Axis: f.Axis, Perp: f.Tau})
		}
	}
	e.regMu.Lock()
	e.filter.SetClasses(classes, e.subs)
	e.regMu.Unlock()
}

// advance moves the engine clock monotonically forward and returns the
// resulting clock value.
func (e *subEngine) advance(t float64) float64 {
	for {
		cur := e.clock.Load()
		c := math.Float64frombits(cur)
		if t <= c {
			return c
		}
		if e.clock.CompareAndSwap(cur, math.Float64bits(t)) {
			return t
		}
	}
}

func (e *subEngine) now() float64 { return math.Float64frombits(e.clock.Load()) }

// reconcileShard evaluates a group of applied records (present == true) or
// removed IDs against the subscriptions, under the registry read lock and
// the group's evaluation-shard mutex. It returns the raw (unsorted) deltas
// plus any velocities the filter's online bounds did not cover yet; the
// caller sorts, emits, and grows the filter.
func (e *subEngine) reconcileShard(si int, objs []Object, removed []ObjectID, now float64) (evs []MonitorEvent, grow []Vec2) {
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	if len(e.subs) == 0 {
		return nil, nil
	}
	sh := &e.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, o := range objs {
		var ok bool
		sh.cands, ok = e.filter.AppendCandidates(sh.cands[:0], o, now)
		if !ok {
			grow = append(grow, o.Vel)
		}
		evs = append(evs, sh.rs.Reconcile(o.ID, o, true, now, sh.cands, !ok, e.subs)...)
	}
	for _, id := range removed {
		evs = append(evs, sh.rs.Reconcile(id, Object{}, false, now, nil, false, nil)...)
	}
	return evs, grow
}

// growFilter raises the filter's online velocity bounds to cover the given
// velocities and rebuilds the affected class grids.
func (e *subEngine) growFilter(vs []Vec2) {
	if len(vs) == 0 {
		return
	}
	e.regMu.Lock()
	for _, v := range vs {
		e.filter.Grow(v, e.subs)
	}
	e.regMu.Unlock()
}

// emit delivers one sorted delta batch to the Events() stream, if one has
// been opened. The stream mutex keeps the batch contiguous.
func (e *subEngine) emit(evs []MonitorEvent) {
	if len(evs) == 0 {
		return
	}
	st := e.stream.Load()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, ev := range evs {
		if st.policy == BlockOnFull {
			st.ch <- ev
			continue
		}
		select {
		case st.ch <- ev:
			continue
		default:
		}
		// Full: drop the oldest buffered event, then retry once. Emitters
		// are serialized by st.mu and the consumer only makes room, so the
		// retry can only fail if the consumer raced the pop — in which case
		// the event still fits — or not at all.
		select {
		case <-st.ch:
			e.dropped.Add(1)
		default:
		}
		select {
		case st.ch <- ev:
		default:
			e.dropped.Add(1)
		}
	}
}

// noteReport is the write-path hook for a single applied record: advance
// the clock to the report time, reconcile, emit.
func (e *subEngine) noteReport(o Object) {
	if e.nsubs.Load() == 0 {
		return
	}
	now := e.advance(o.T)
	evs, grow := e.reconcileShard(e.store.shardIndex(o.ID), []Object{o}, nil, now)
	monitor.SortEvents(evs)
	e.emit(evs)
	e.growFilter(grow)
}

// noteRemove is the write-path hook for a removed ID: the object leaves
// every result set, at the current clock (a removal carries no timestamp).
func (e *subEngine) noteRemove(id ObjectID) {
	if e.nsubs.Load() == 0 {
		return
	}
	evs, _ := e.reconcileShard(e.store.shardIndex(id), nil, []ObjectID{id}, e.now())
	monitor.SortEvents(evs)
	e.emit(evs)
}

// noteBatch is the write-path hook for ReportBatch: the applied records, in
// batch order. The whole batch is evaluated at one instant — the clock after
// advancing to the batch's largest report time — with the records grouped by
// evaluation shard, the groups reconciled in parallel and the deltas merged
// into a single sorted batch.
func (e *subEngine) noteBatch(objs []Object) {
	if e.nsubs.Load() == 0 || len(objs) == 0 {
		return
	}
	tmax := math.Inf(-1)
	for _, o := range objs {
		tmax = math.Max(tmax, o.T)
	}
	now := e.advance(tmax)
	// The per-shard slices are pooled batch to batch (ReportBatch is the
	// sustained ingest path); only the merged slices below are per-call.
	sc, _ := e.notePool.Get().(*noteScratch)
	if sc == nil {
		n := len(e.shards)
		sc = &noteScratch{groups: make([][]Object, n), per: make([][]MonitorEvent, n), grows: make([][]Vec2, n)}
	}
	for _, o := range objs {
		si := e.store.shardIndex(o.ID)
		sc.groups[si] = append(sc.groups[si], o)
	}
	_ = parallel.Do(len(sc.groups), 0, func(i int) error {
		if len(sc.groups[i]) > 0 {
			sc.per[i], sc.grows[i] = e.reconcileShard(i, sc.groups[i], nil, now)
		}
		return nil
	})
	var evs []MonitorEvent
	var grow []Vec2
	for i := range sc.per {
		evs = append(evs, sc.per[i]...)
		grow = append(grow, sc.grows[i]...)
		sc.groups[i], sc.per[i], sc.grows[i] = sc.groups[i][:0], nil, nil
	}
	e.notePool.Put(sc)
	monitor.SortEvents(evs)
	e.emit(evs)
	e.growFilter(grow)
}

// refreshSub re-runs one subscription's query at time now and applies the
// snapshot shard by shard. The registry read lock is held across the
// apply so a racing Unsubscribe (which holds the write lock, then clears
// the shards) can never leave behind memberships for a dead subscription.
func (e *subEngine) refreshSub(id SubscriptionID, now float64) ([]MonitorEvent, error) {
	e.regMu.RLock()
	s, ok := e.subs[id]
	if !ok {
		e.regMu.RUnlock()
		return nil, nil
	}
	e.regMu.RUnlock()
	ids, err := e.store.Search(s.QueryAt(now))
	if err != nil {
		return nil, err
	}
	byShard := make([][]ObjectID, len(e.shards))
	for _, oid := range ids {
		si := e.store.shardIndex(oid)
		byShard[si] = append(byShard[si], oid)
	}
	var evs []MonitorEvent
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	if _, ok := e.subs[id]; !ok {
		return nil, nil // unsubscribed between the search and the apply
	}
	for si := range e.shards {
		sh := &e.shards[si]
		sh.mu.Lock()
		evs = append(evs, sh.rs.ApplySnapshot(id, byShard[si], now)...)
		sh.mu.Unlock()
	}
	monitor.SortEvents(evs)
	return evs, nil
}

// Subscribe registers a standing query on the Store and returns its id
// along with the seed deltas (the initial membership, as Enter events).
// The subscription is validated up front: a negative horizon/window or a
// malformed region template fails immediately. The seed deltas are also
// delivered to the Events() stream, which therefore carries the complete
// membership history of every subscription.
//
// now advances the engine's evaluation clock (monotonically); the seed is
// evaluated at now, like Monitor.Subscribe. Subsequent reports re-evaluate
// the subscription incrementally; call RefreshSubscriptions periodically to
// catch objects drifting in or out of the predicted region purely through
// the passage of time.
func (s *Store) Subscribe(sub Subscription, now float64) (SubscriptionID, []MonitorEvent, error) {
	if err := sub.Validate(); err != nil {
		return 0, nil, err
	}
	var (
		id  SubscriptionID
		evs []MonitorEvent
	)
	err := s.logged(wal.TypeSubscribe,
		func() (_ bool, err error) {
			id, evs, err = s.subscribeApply(0, sub, now)
			return applied(err)
		},
		func(dst []byte) []byte { return wal.AppendSubscribe(dst, id, sub, now) })
	if err != nil {
		return 0, nil, err
	}
	return id, evs, nil
}

// subscribeApply is Subscribe's in-memory half: registration under id — 0
// allocates the next one; replay passes the logged id, re-running the same
// sequence at the logged clock — plus the seed evaluation, rolled back if the
// seed query fails.
func (s *Store) subscribeApply(id SubscriptionID, sub Subscription, now float64) (SubscriptionID, []MonitorEvent, error) {
	e := s.engine()
	e.advance(now)
	e.regMu.Lock()
	if id == 0 {
		id = e.nextID + 1
	}
	if id > e.nextID {
		e.nextID = id
	}
	e.subs[id] = sub
	e.filter.Add(id, sub)
	e.regMu.Unlock()
	e.nsubs.Add(1)
	evs, err := e.refreshSub(id, now)
	if err != nil {
		e.regMu.Lock()
		delete(e.subs, id)
		e.filter.Remove(id)
		e.regMu.Unlock()
		e.nsubs.Add(-1)
		for si := range e.shards {
			sh := &e.shards[si]
			sh.mu.Lock()
			sh.rs.DropSub(id)
			sh.mu.Unlock()
		}
		return 0, nil, err
	}
	e.emit(evs)
	if d := s.dur; d != nil {
		d.subsDirty.Store(true)
	}
	return id, evs, nil
}

// Unsubscribe removes a standing query and its result set, emitting no
// events. Returns ErrNotFound (errors.Is-able) for an unknown id.
func (s *Store) Unsubscribe(id SubscriptionID) error {
	return s.logged(wal.TypeUnsubscribe,
		func() (bool, error) { return applied(s.unsubscribeApply(id)) },
		func(dst []byte) []byte { return wal.AppendUnsubscribe(dst, id) })
}

// unsubscribeApply is Unsubscribe's in-memory half.
func (s *Store) unsubscribeApply(id SubscriptionID) error {
	e := s.subEng.Load()
	if e == nil {
		return fmt.Errorf("vpindex: unsubscribe %d: %w", id, ErrNotFound)
	}
	e.regMu.Lock()
	if _, ok := e.subs[id]; !ok {
		e.regMu.Unlock()
		return fmt.Errorf("vpindex: unsubscribe %d: %w", id, ErrNotFound)
	}
	delete(e.subs, id)
	e.filter.Remove(id)
	e.regMu.Unlock()
	e.nsubs.Add(-1)
	for si := range e.shards {
		sh := &e.shards[si]
		sh.mu.Lock()
		sh.rs.DropSub(id)
		sh.mu.Unlock()
	}
	if d := s.dur; d != nil {
		d.subsDirty.Store(true)
	}
	return nil
}

// SubscriptionResults snapshots the current result set of a subscription in
// ascending ObjectID order — deterministic, matching the event-stream
// ordering guarantee. Returns ErrNotFound for an unknown id.
func (s *Store) SubscriptionResults(id SubscriptionID) ([]ObjectID, error) {
	e := s.subEng.Load()
	if e == nil {
		return nil, fmt.Errorf("vpindex: subscription %d: %w", id, ErrNotFound)
	}
	e.regMu.RLock()
	_, ok := e.subs[id]
	e.regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("vpindex: subscription %d: %w", id, ErrNotFound)
	}
	var out []ObjectID
	for si := range e.shards {
		sh := &e.shards[si]
		sh.mu.Lock()
		out = append(out, sh.rs.Members(id)...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// NumSubscriptions returns the number of live standing queries.
func (s *Store) NumSubscriptions() int {
	e := s.subEng.Load()
	if e == nil {
		return 0
	}
	return int(e.nsubs.Load())
}

// RefreshSubscriptions re-runs every subscription's query at the given
// time, emitting the deltas caused purely by the passage of time (objects
// drifting in or out of predicted regions without reporting). The
// subscriptions are refreshed concurrently — each one's query fans out
// across the partitions as usual — and the combined
// deltas form a single batch sorted by Sub → ID → Kind, delivered to the
// Events() stream and returned. On error, deltas of the subscriptions that
// completed are still applied, returned, and streamed.
//
// A refresh overlapping in-flight reports installs a query snapshot that
// may predate them; memberships of exactly those objects can transiently
// regress until their next report or a quiescent refresh re-evaluates
// them (see the concurrency notes at the top of this file).
func (s *Store) RefreshSubscriptions(now float64) ([]MonitorEvent, error) {
	if s.subEng.Load() == nil {
		return nil, nil
	}
	// A refresh mutates memberships as a function of time alone, so recovery
	// must replay it at the same clock to reproduce the same result sets: it
	// is logged like any other write, and gated like one — whatever part of
	// it failed, since the subscriptions that completed stay applied.
	var evs []MonitorEvent
	err := s.logged(wal.TypeRefresh,
		func() (_ bool, err error) {
			evs, err = s.refreshApply(now)
			return true, err
		},
		func(dst []byte) []byte { return wal.AppendRefresh(dst, now) })
	return evs, err
}

// refreshApply is RefreshSubscriptions' in-memory half; the caller has checked
// that the engine exists.
func (s *Store) refreshApply(now float64) ([]MonitorEvent, error) {
	e := s.subEng.Load()
	e.advance(now)
	if d := s.dur; d != nil {
		d.subsDirty.Store(true)
	}
	e.regMu.RLock()
	ids := make([]SubscriptionID, 0, len(e.subs))
	for id := range e.subs {
		ids = append(ids, id)
	}
	e.regMu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	per := make([][]MonitorEvent, len(ids))
	err := parallel.Do(len(ids), s.cfg.searchPar, func(i int) error {
		evs, err := e.refreshSub(ids[i], now)
		if err != nil {
			return err
		}
		per[i] = evs
		return nil
	})
	var evs []MonitorEvent
	for _, p := range per {
		evs = append(evs, p...)
	}
	// Each subscription's deltas are sorted by (ID, Kind) and concatenated
	// in ascending subscription order, so the batch is already globally
	// sorted by Sub → ID → Kind.
	e.emit(evs)
	return evs, err
}

// Events returns the Store's ordered asynchronous event stream: every
// subscription delta — report evaluations, batch evaluations, refreshes,
// and Subscribe seeds — is delivered to it as soon as its batch is
// evaluated, each batch contiguous and sorted by Sub → ID → Kind. The
// channel is created on the first call with the WithEventBuffer capacity
// and back-pressure policy (default: DefaultEventBuffer, BlockOnFull);
// deltas evaluated before the first call are not replayed. The channel is
// never closed; all callers share one channel.
func (s *Store) Events() <-chan MonitorEvent {
	e := s.engine()
	if st := e.stream.Load(); st != nil {
		return st.ch
	}
	st := &eventStream{
		ch:     make(chan MonitorEvent, s.cfg.eventBuf),
		policy: s.cfg.eventPolicy,
	}
	if !e.stream.CompareAndSwap(nil, st) {
		return e.stream.Load().ch
	}
	return st.ch
}

// DroppedEvents returns how many events the DropOldest back-pressure
// policy has discarded because the Events() buffer was full. Always zero
// under BlockOnFull.
func (s *Store) DroppedEvents() int64 {
	e := s.subEng.Load()
	if e == nil {
		return 0
	}
	return e.dropped.Load()
}

// SubscriptionFilterClasses reports how many velocity classes the coarse
// subscription filter currently maintains (the DVA classes of the live
// partition epoch plus the isotropic catch-all), for instrumentation.
func (s *Store) SubscriptionFilterClasses() int {
	e := s.subEng.Load()
	if e == nil {
		return 0
	}
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	return e.filter.NumClasses()
}
