// Package monitor implements continuous (standing) range queries over
// moving-object indexes. This is the service shape the VP paper's
// introduction motivates: GPS devices "report their locations to a server
// in order to get location based services", and those services watch
// regions — a dispatch zone, a geofence, a protective box — continuously
// rather than asking one-shot queries.
//
// A subscription is a region plus a prediction horizon h. At evaluation
// time t its result set is every object that satisfies the region at t+h.
// The package is layered:
//
//   - eval.go is the reusable evaluation core — subscription instantiation
//     (QueryAt), validation, the exact predicate (MatchesAt), and the
//     ResultSet membership table with incremental reconcile / snapshot
//     diffing — decoupled from any index.
//   - filter.go is the coarse spatial subscription filter: per-velocity-
//     class grids that map one report to the few subscriptions it could
//     affect, with per-partition τ bounds keeping the expansion tight.
//   - monitor.go (this file) is the single-lock Monitor that wraps one
//     model.Index and evaluates every subscription on every report. The
//     package-root Store composes the same core and filter into its
//     sharded subscription engine instead; the Monitor remains as the
//     reference the Store's event-stream oracle compares against (over a
//     brute-force index).
package monitor

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
)

// SubscriptionID identifies a standing query.
type SubscriptionID uint64

// EventKind says how a result set changed.
type EventKind int

const (
	// Enter: the object joined the subscription's result set.
	Enter EventKind = iota
	// Leave: the object left the result set.
	Leave
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k == Enter {
		return "enter"
	}
	return "leave"
}

// Event is one result-set delta.
type Event struct {
	Sub  SubscriptionID
	ID   model.ObjectID
	Kind EventKind
	T    float64 // evaluation time that produced the delta
}

// SortEvents orders one delta batch deterministically: by subscription,
// then object, then kind. The result sets live in Go maps, whose iteration
// order is deliberately randomized, so without this two identical runs
// would emit identical deltas in shuffled order — and a consumer diffing or
// replaying event logs would see phantom differences. Every emitting verb
// sorts its batch before returning it.
func SortEvents(evs []Event) []Event {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Sub != evs[j].Sub {
			return evs[i].Sub < evs[j].Sub
		}
		if evs[i].ID != evs[j].ID {
			return evs[i].ID < evs[j].ID
		}
		return evs[i].Kind < evs[j].Kind
	})
	return evs
}

// sortedSubIDs snapshots the subscription IDs in ascending order, for the
// verbs that walk every subscription. Caller holds mu.
func (m *Monitor) sortedSubIDs() []SubscriptionID {
	ids := make([]SubscriptionID, 0, len(m.subs))
	for id := range m.subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Subscription describes a standing query.
type Subscription struct {
	// Query is the region template. Kind/T0/T1 are managed by the
	// monitor: at evaluation time t the query is executed as a time-slice
	// (or interval of length Window) at t+Horizon.
	Query model.RangeQuery
	// Horizon is the prediction lookahead (ts).
	Horizon float64
	// Window extends the evaluation to an interval [t+Horizon,
	// t+Horizon+Window]; 0 means a pure time-slice.
	Window float64
}

// Reporter is the ID-keyed upsert surface of the package-root Store.
// Indexes that implement it (the Store does; the raw base trees do not)
// unlock the production verbs ProcessReport and ProcessRemove, which need
// no caller-supplied old record.
type Reporter interface {
	model.Index
	Report(o model.Object) error
	Remove(id model.ObjectID) error
	Get(id model.ObjectID) (model.Object, bool)
}

// Monitor maintains standing queries over an index. Mutating verbs hold the
// write lock (result-set deltas must be totally ordered); the snapshot
// accessors (Results, Now) take the read lock so concurrent dashboards
// polling result sets never serialize against each other.
//
// The Monitor evaluates every subscription on every update — O(all
// subscriptions) per report. The package-root Store's native subscription
// engine shares this package's evaluation core but adds the spatial filter
// and sharding; prefer Store.Subscribe for production traffic.
type Monitor struct {
	mu     sync.RWMutex
	idx    model.Index
	nextID SubscriptionID
	subs   map[SubscriptionID]Subscription
	// rs holds the current membership per subscription.
	rs  *ResultSet
	now float64
}

// New wraps an index (which may already contain objects; call Refresh to
// seed result sets).
func New(idx model.Index) *Monitor {
	return &Monitor{
		idx:  idx,
		subs: make(map[SubscriptionID]Subscription),
		rs:   NewResultSet(),
	}
}

// Index returns the wrapped index.
func (m *Monitor) Index() model.Index { return m.idx }

// Subscribe registers a standing query and returns its id. The subscription
// is validated up front — a negative horizon/window or a malformed region
// template fails here, once, instead of failing every later refresh. The
// initial result set is computed immediately at the monitor's current time.
func (m *Monitor) Subscribe(s Subscription, now float64) (SubscriptionID, []Event, error) {
	if err := s.Validate(); err != nil {
		return 0, nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(now)
	m.nextID++
	id := m.nextID
	m.subs[id] = s
	evs, err := m.refreshLocked(id, now)
	if err != nil {
		delete(m.subs, id)
		m.rs.DropSub(id)
		return 0, nil, err
	}
	return id, evs, nil
}

// Unsubscribe removes a standing query.
func (m *Monitor) Unsubscribe(id SubscriptionID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.subs, id)
	m.rs.DropSub(id)
}

// Results snapshots the current result set of a subscription, in ascending
// ObjectID order — deterministic, matching the event-stream ordering
// guarantee, so two identical runs produce byte-identical snapshots.
func (m *Monitor) Results(id SubscriptionID) []model.ObjectID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.rs.Members(id)
}

// ProcessUpdate applies the object update to the index and incrementally
// re-evaluates the updated object against every subscription, emitting
// enter/leave deltas. The update's reference time advances the monitor
// clock.
func (m *Monitor) ProcessUpdate(old, new model.Object) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.idx.Update(old, new); err != nil {
		return nil, err
	}
	m.advance(new.T)
	return SortEvents(m.rs.Reconcile(new.ID, new, true, m.now, nil, true, m.subs)), nil
}

// ProcessReport applies an ID-keyed upsert through a Reporter index (the
// package-root Store) and incrementally re-evaluates the object — the
// production entry point for a location-report stream, where the server,
// not the device, knows the previous record. Returns a model.ErrUnsupported
// error when the wrapped index has no ID-keyed surface.
func (m *Monitor) ProcessReport(o model.Object) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep, ok := m.idx.(Reporter)
	if !ok {
		return nil, fmt.Errorf("monitor: index %s does not accept ID-keyed reports: %w",
			m.idx.Name(), model.ErrUnsupported)
	}
	if err := rep.Report(o); err != nil {
		return nil, err
	}
	m.advance(o.T)
	return SortEvents(m.rs.Reconcile(o.ID, o, true, m.now, nil, true, m.subs)), nil
}

// ProcessRemove deletes an object by ID through a Reporter index; the
// object leaves every result set it was in. Returns a model.ErrUnsupported
// error when the wrapped index has no ID-keyed surface.
func (m *Monitor) ProcessRemove(id model.ObjectID) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep, ok := m.idx.(Reporter)
	if !ok {
		return nil, fmt.Errorf("monitor: index %s does not accept ID-keyed removes: %w",
			m.idx.Name(), model.ErrUnsupported)
	}
	if err := rep.Remove(id); err != nil {
		return nil, err
	}
	return SortEvents(m.rs.Reconcile(id, model.Object{}, false, m.now, nil, false, nil)), nil
}

// ProcessInsert indexes a new object and evaluates it against every
// subscription.
func (m *Monitor) ProcessInsert(o model.Object) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.idx.Insert(o); err != nil {
		return nil, err
	}
	m.advance(o.T)
	return SortEvents(m.rs.Reconcile(o.ID, o, true, m.now, nil, true, m.subs)), nil
}

// ProcessDelete removes an object; it leaves every result set it was in.
func (m *Monitor) ProcessDelete(o model.Object) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.idx.Delete(o); err != nil {
		return nil, err
	}
	return SortEvents(m.rs.Reconcile(o.ID, model.Object{}, false, m.now, nil, false, nil)), nil
}

// Refresh re-runs every subscription's query at the given time, emitting
// deltas caused by the passage of time (objects drifting in or out of the
// predicted region without reporting updates). Subscriptions are refreshed
// in ascending ID order and each one's deltas are sorted, so the emitted
// stream is fully deterministic — including the partial stream returned
// alongside an error.
func (m *Monitor) Refresh(now float64) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(now)
	var evs []Event
	for _, id := range m.sortedSubIDs() {
		e, err := m.refreshLocked(id, now)
		if err != nil {
			return evs, err
		}
		evs = append(evs, e...)
	}
	return evs, nil
}

// refreshLocked recomputes one subscription's result set via the index.
func (m *Monitor) refreshLocked(id SubscriptionID, now float64) ([]Event, error) {
	s := m.subs[id]
	ids, err := m.idx.Search(s.QueryAt(now))
	if err != nil {
		return nil, err
	}
	return m.rs.ApplySnapshot(id, ids, now), nil
}

// advance moves the monitor clock monotonically forward.
func (m *Monitor) advance(t float64) {
	if t > m.now {
		m.now = t
	}
}

// Now returns the monitor's current clock.
func (m *Monitor) Now() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.now
}
