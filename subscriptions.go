package vpindex

import (
	"fmt"
	"math"
	"slices"
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
//   - Result-set membership lives with the rest of an object's state, in the
//     Store stripe of the manager's table stripe it hashes to: each stripe
//     owns a monitor.ResultSet under that stripe's lock, so reports of ids on
//     different stripes evaluate their subscriptions genuinely in parallel.
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
// Deltas are computed in each record's own critical section: the write path
// reconciles a record under the table stripe that updates its row (the
// write's core.Settler), so an object's memberships are always evaluated
// against the record the table holds. They are sorted and emitted once the
// verb has released every lock. Result sets reference ObjectIDs, not index
// internals, so they survive repartition and epoch swaps untouched.
//
// # Ordering and concurrency semantics
//
// Every evaluation batch (one Report, one ReportBatch, one Refresh, one
// Subscribe seed) emits its deltas as a single batch sorted by
// Sub → ID → Kind (monitor.SortEvents). Batches from concurrent callers
// interleave in an unspecified order. A RefreshSubscriptions or Subscribe
// seed applies a query snapshot taken before it takes the stripes, so it
// must not overlap reports of the objects it covers to be exact (the next
// evaluation of such an object converges it).

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

// subEngine is the Store's subscription engine, created lazily by the
// first Subscribe or Events call.
type subEngine struct {
	store *Store

	// regMu guards the subscription registry: subs, filter, nextID. Report
	// evaluation holds it shared; Subscribe/Unsubscribe/SetClasses/Grow
	// hold it exclusively. See "Lock order" on Store.
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

	stream  atomic.Pointer[eventStream]
	dropped atomic.Int64
}

func newSubEngine(s *Store) *subEngine {
	return &subEngine{
		store:  s,
		subs:   make(map[SubscriptionID]Subscription),
		filter: monitor.NewFilter(s.cfg.base.Domain, 0),
	}
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
// Store's current analysis. Called with no Store lock held — from engine
// creation and at the end of every partition swap — because it takes the
// registry write lock.
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

// members returns sub's result set, stripe by stripe, each part in ascending
// ObjectID order.
func (e *subEngine) members(sub SubscriptionID) []ObjectID {
	var out []ObjectID
	for i := range e.store.stripes {
		e.store.inStripe(i, func(st *stripe) { out = append(out, st.rs.Members(sub)...) })
	}
	return out
}

// dropSub forgets sub's memberships in every stripe, with no events. The
// caller has already removed it from the registry.
func (e *subEngine) dropSub(sub SubscriptionID) {
	for i := range e.store.stripes {
		e.store.inStripe(i, func(st *stripe) { st.rs.DropSub(sub) })
	}
}

// refreshSub re-runs one subscription's query at time now and applies the
// snapshot stripe by stripe. The registry read lock is held across the
// apply so a racing Unsubscribe (which holds the write lock, then clears
// the stripes) can never leave behind memberships for a dead subscription.
// It runs inside a logged verb, so its search leaves fault classification to
// logged.
func (e *subEngine) refreshSub(id SubscriptionID, now float64) ([]MonitorEvent, error) {
	e.regMu.RLock()
	s, ok := e.subs[id]
	if !ok {
		e.regMu.RUnlock()
		return nil, nil
	}
	e.regMu.RUnlock()
	ids, err := e.store.search(s.QueryAt(now))
	if err != nil {
		return nil, err
	}
	var evs []MonitorEvent
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	if _, ok := e.subs[id]; !ok {
		return nil, nil // unsubscribed between the search and the apply
	}
	for i, fresh := range e.store.byStripe(ids) {
		e.store.inStripe(i, func(st *stripe) { evs = append(evs, st.rs.ApplySnapshot(id, fresh, now)...) })
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
// evaluated at now. A non-finite now is rejected with
// ErrInvalidQuery before anything is registered, logged or advanced.
// Subsequent reports re-evaluate the subscription incrementally; call
// RefreshSubscriptions periodically to catch objects drifting in or out of
// the predicted region purely through the passage of time.
func (s *Store) Subscribe(sub Subscription, now float64) (SubscriptionID, []MonitorEvent, error) {
	if err := sub.Validate(); err != nil {
		return 0, nil, err
	}
	if err := finiteNow(now); err != nil {
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
	s.engine().emit(evs)
	return id, evs, nil
}

// finiteNow rejects a non-finite evaluation clock: it would stick in the
// engine clock and evaluate every later report at it.
func finiteNow(now float64) error {
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return fmt.Errorf("vpindex: subscription clock %v: %w", now, ErrInvalidQuery)
	}
	return nil
}

// subscribeApply is Subscribe's in-memory half: registration under id — 0
// allocates the next one; replay passes the logged id, re-running the same
// sequence at the logged clock — plus the seed evaluation, rolled back if the
// seed query fails. The caller emits the seed deltas.
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
		e.dropSub(id)
		return 0, nil, err
	}
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
	e.dropSub(id)
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
	out := e.members(id)
	slices.Sort(out)
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
// may predate them (see the concurrency notes at the top of this file). A
// non-finite now is rejected with ErrInvalidQuery, logging nothing.
func (s *Store) RefreshSubscriptions(now float64) ([]MonitorEvent, error) {
	if err := finiteNow(now); err != nil {
		return nil, err
	}
	e := s.subEng.Load()
	if e == nil {
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
	e.emit(evs)
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
	slices.Sort(ids)
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
	// sorted by Sub → ID → Kind; the caller emits it.
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
