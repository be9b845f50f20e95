// Package monitor is the evaluation core of continuous (standing) range
// queries over moving objects. This is the service shape the VP paper's
// introduction motivates: GPS devices "report their locations to a server
// in order to get location based services", and those services watch
// regions — a dispatch zone, a geofence, a protective box — continuously
// rather than asking one-shot queries.
//
// A subscription is a region plus a prediction horizon h. At evaluation
// time t its result set is every object that satisfies the region at t+h.
// The package holds no index and takes no lock; the package-root Store's
// subscription engine composes it:
//
//   - eval.go (this file) is subscription instantiation (QueryAt),
//     validation, the exact predicate (MatchesAt), and the ResultSet
//     membership table with incremental reconcile and snapshot diffing.
//   - filter.go is the coarse spatial subscription filter: per-velocity-
//     class grids that map one report to the few subscriptions it could
//     affect, with per-partition τ bounds keeping the expansion tight.
package monitor

import (
	"fmt"
	"math"
	"slices"
	"sort"

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

// Subscription describes a standing query.
type Subscription struct {
	// Query is the region template. Kind/T0/T1 are managed by the
	// evaluation: at evaluation time t the query is executed as a time-slice
	// (or interval of length Window) at t+Horizon.
	Query model.RangeQuery
	// Horizon is the prediction lookahead (ts).
	Horizon float64
	// Window extends the evaluation to an interval [t+Horizon,
	// t+Horizon+Window]; 0 means a pure time-slice.
	Window float64
}

// QueryAt instantiates the subscription's query template for evaluation
// time t: the region is evaluated as a time-slice at t+Horizon, or over
// the interval [t+Horizon, t+Horizon+Window] when Window > 0 — static for
// ordinary templates, translating with the template's Vel for MovingRange
// templates (the convoy-protection query of the paper's Section 6). Now,
// T0 and T1 of the embedded template are managed fields — QueryAt
// overwrites them on every instantiation; Kind is preserved only as the
// MovingRange marker.
func (s Subscription) QueryAt(t float64) model.RangeQuery {
	q := s.Query
	q.Now = t
	q.T0 = t + s.Horizon
	switch {
	case q.Kind == model.MovingRange:
		q.T1 = q.T0 + s.Window
	case s.Window > 0:
		q.Kind = model.TimeInterval
		q.T1 = q.T0 + s.Window
	default:
		q.Kind = model.TimeSlice
	}
	return q
}

// Validate reports a descriptive error, wrapping model.ErrInvalidQuery, for
// malformed subscriptions: a negative or non-finite horizon or window, or a
// region template (negative radius, empty rectangle with no circle) that
// every later instantiation would reject. Subscribe calls it so a broken
// subscription fails once, immediately, instead of failing every subsequent
// refresh. Non-finite values are checked here because the instantiated query
// cannot catch them all: a NaN window evaluates as a time-slice (NaN > 0 is
// false).
func (s Subscription) Validate() error {
	for _, v := range [...]float64{s.Horizon, s.Window} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("monitor: horizon %g / window %g: %w", s.Horizon, s.Window, model.ErrInvalidQuery)
		}
	}
	// The time fields of an instantiated query are valid by construction
	// (T0 = t+Horizon >= t = Now, T1 >= T0), so this checks exactly the
	// caller-controlled region template.
	if err := s.QueryAt(0).Validate(); err != nil {
		return fmt.Errorf("monitor: invalid subscription region: %w", err)
	}
	return nil
}

// MatchesAt is the exact predicate: does object o satisfy subscription s
// when evaluated at time now?
func MatchesAt(o model.Object, s Subscription, now float64) bool {
	return model.Matches(o, s.QueryAt(now))
}

// ResultSet maintains the current membership of every subscription over one
// population of objects, in both directions: per subscription (the result
// sets) and per object (which subscriptions contain it), so an object
// update touches only its own memberships plus the candidate subscriptions
// the caller passes in, and an object removal never scans the subscription
// registry at all.
//
// A ResultSet does no locking and holds no reference to an index or a
// subscription registry; the caller owns both and serializes access. The
// package-root Store partitions one logical result set into per-stripe
// ResultSets: each object's memberships live in the ResultSet of the table
// stripe its ID hashes to.
type ResultSet struct {
	bySub map[SubscriptionID]map[model.ObjectID]bool
	byObj map[model.ObjectID]map[SubscriptionID]bool
}

// NewResultSet returns an empty membership table.
func NewResultSet() *ResultSet {
	return &ResultSet{
		bySub: make(map[SubscriptionID]map[model.ObjectID]bool),
		byObj: make(map[model.ObjectID]map[SubscriptionID]bool),
	}
}

// set records id as a member of sub.
func (r *ResultSet) set(sub SubscriptionID, id model.ObjectID) {
	m := r.bySub[sub]
	if m == nil {
		m = make(map[model.ObjectID]bool)
		r.bySub[sub] = m
	}
	m[id] = true
	o := r.byObj[id]
	if o == nil {
		o = make(map[SubscriptionID]bool)
		r.byObj[id] = o
	}
	o[sub] = true
}

// clear removes id from sub's result set.
func (r *ResultSet) clear(sub SubscriptionID, id model.ObjectID) {
	if m := r.bySub[sub]; m != nil {
		delete(m, id)
		if len(m) == 0 {
			delete(r.bySub, sub)
		}
	}
	if o := r.byObj[id]; o != nil {
		delete(o, sub)
		if len(o) == 0 {
			delete(r.byObj, id)
		}
	}
}

// Reconcile incrementally re-evaluates one object against the
// subscriptions that could be affected, flipping membership bits and
// returning the enter/leave deltas in unspecified order — callers that
// emit them sort the merged batch (the Store merges deltas of many
// reconciles into one sorted batch; sorting here too would be paid again
// on every report).
//
// With present == false the object has been removed: it leaves every
// result set it was in, with no predicate evaluation (cands, all and subs
// are ignored). Otherwise o is the object's current record, evaluated at
// time now against (a) every candidate in cands — the caller's coarse
// filter output, which must include every subscription the object could
// possibly match — and (b) every subscription currently containing the
// object, so a conservative filter miss can still only cost a predicate
// test, never a stale membership. With all == true, cands is ignored and
// every subscription in subs is a candidate (the unfiltered path).
func (r *ResultSet) Reconcile(id model.ObjectID, o model.Object, present bool, now float64,
	cands []SubscriptionID, all bool, subs map[SubscriptionID]Subscription) []Event {
	var evs []Event
	if !present {
		for sub := range r.byObj[id] {
			r.clear(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Leave, T: now})
		}
		return evs
	}
	// Membership is read from the object's own set, a map of the few
	// subscriptions it is in, rather than from each candidate's result set.
	// set may create the object's map; clear may empty and drop it, which
	// leaves mem a valid, empty map until the next set.
	mem := r.byObj[id]
	eval := func(sub SubscriptionID, s Subscription) {
		member := mem[sub]
		match := MatchesAt(o, s, now)
		switch {
		case match && !member:
			r.set(sub, id)
			mem = r.byObj[id]
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Enter, T: now})
		case !match && member:
			r.clear(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Leave, T: now})
		}
	}
	if all {
		for sub, s := range subs {
			eval(sub, s)
		}
		return evs
	}
	for _, sub := range cands {
		if s, ok := subs[sub]; ok {
			eval(sub, s)
		}
	}
	// Memberships the candidate list did not cover: the object moved out of
	// the filter's reach for these subscriptions, so they are (almost
	// certainly) leaves — but each is re-proved with the exact predicate, so
	// a too-tight filter can never evict a true member. A filtered report has
	// about one candidate, so a scan of the list beats building a set of it.
	for sub := range r.byObj[id] {
		if slices.Contains(cands, sub) {
			continue
		}
		if s, ok := subs[sub]; ok {
			eval(sub, s)
		}
	}
	return evs
}

// ApplySnapshot replaces sub's result set (restricted to this ResultSet's
// object population) with the given fresh membership — the output of a full
// index query — and returns the deltas sorted by (ID, Kind). The caller
// guarantees fresh contains only objects belonging to this ResultSet (the
// Store pre-partitions a query result by stripe).
func (r *ResultSet) ApplySnapshot(sub SubscriptionID, fresh []model.ObjectID, now float64) []Event {
	next := make(map[model.ObjectID]bool, len(fresh))
	var evs []Event
	for _, id := range fresh {
		next[id] = true
		if !r.bySub[sub][id] {
			r.set(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Enter, T: now})
		}
	}
	for id := range r.bySub[sub] {
		if !next[id] {
			r.clear(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Leave, T: now})
		}
	}
	return SortEvents(evs)
}

// Members returns sub's current result set in ascending ObjectID order.
func (r *ResultSet) Members(sub SubscriptionID) []model.ObjectID {
	m := r.bySub[sub]
	out := make([]model.ObjectID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Seed installs ids as members of sub without emitting events — the
// checkpoint-restore path, where memberships are historical fact rather than
// fresh enter transitions.
func (r *ResultSet) Seed(sub SubscriptionID, ids []model.ObjectID) {
	for _, id := range ids {
		r.set(sub, id)
	}
}

// DropSub forgets sub entirely (both directions), with no events — the
// Unsubscribe semantics.
func (r *ResultSet) DropSub(sub SubscriptionID) {
	for id := range r.bySub[sub] {
		r.clear(sub, id)
	}
	delete(r.bySub, sub)
}
