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
//     membership table (two slice-backed directions with back-pointers)
//     with incremental reconcile and snapshot diffing.
//   - filter.go is the coarse spatial subscription filter: per-velocity-
//     class grids that map one report to the few subscriptions it could
//     affect, with per-partition τ bounds keeping the expansion tight.
package monitor

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// then object, then kind. A batch is collected in whatever order its
// reconciles ran and their result sets were laid out, and the unfiltered path
// ranges over the subscription registry, a Go map whose iteration order is
// deliberately randomized — so without this two identical runs could emit
// identical deltas in shuffled order, and a consumer diffing or replaying
// event logs would see phantom differences. Every emitting verb sorts its
// batch before returning it. The sort allocates nothing: it runs on every
// report that emits an event.
func SortEvents(evs []Event) []Event {
	slices.SortFunc(evs, func(a, b Event) int {
		if c := cmp.Compare(a.Sub, b.Sub); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ID, b.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
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
// Both directions are slices. A subscription's list holds its members
// unordered; an object's list holds a memberSlot per subscription it is in
// (one to three in practice), recording where the object sits in that
// subscription's list, so a removal swap-deletes on both sides without a
// search. Membership is a scan of the object's own short list.
//
// A ResultSet does no locking and holds no reference to an index or a
// subscription registry; the caller owns both and serializes access. The
// package-root Store partitions one logical result set into per-stripe
// ResultSets: each object's memberships live in the ResultSet of the table
// stripe its ID hashes to.
type ResultSet struct {
	bySub map[SubscriptionID][]model.ObjectID
	byObj map[model.ObjectID][]memberSlot
}

// memberSlot is one membership seen from the object: the subscription and
// the object's index in that subscription's list.
type memberSlot struct {
	sub SubscriptionID
	at  int
}

// NewResultSet returns an empty membership table.
func NewResultSet() *ResultSet {
	return &ResultSet{
		bySub: make(map[SubscriptionID][]model.ObjectID),
		byObj: make(map[model.ObjectID][]memberSlot),
	}
}

// slotOf returns the index of sub's slot in an object's list, or -1.
func slotOf(slots []memberSlot, sub SubscriptionID) int {
	for i := range slots {
		if slots[i].sub == sub {
			return i
		}
	}
	return -1
}

// cut swap-deletes m[k][i] and drops k once its list is empty. A list that
// has fallen to a quarter of its capacity is copied into a fitting array, so
// that its capacity does not stay at its peak.
func cut[K comparable, T any](m map[K][]T, k K, i int) {
	s := m[k]
	last := len(s) - 1
	s[i] = s[last]
	switch {
	case last == 0:
		delete(m, k)
	case cap(s) > 8 && last <= cap(s)/4:
		m[k] = slices.Clone(s[:last])
	default:
		m[k] = s[:last]
	}
}

// set records id as a member of sub. The caller knows it is not one yet.
func (r *ResultSet) set(sub SubscriptionID, id model.ObjectID) {
	ids := r.bySub[sub]
	r.byObj[id] = append(r.byObj[id], memberSlot{sub, len(ids)})
	r.bySub[sub] = append(ids, id)
}

// unlink removes the member at index at of sub's list, repointing the slot
// of the member moved into its place. The removed member's own slot is the
// caller's to drop.
func (r *ResultSet) unlink(sub SubscriptionID, at int) {
	if ids := r.bySub[sub]; at != len(ids)-1 {
		moved := r.byObj[ids[len(ids)-1]]
		moved[slotOf(moved, sub)].at = at
	}
	cut(r.bySub, sub, at)
}

// clear removes id from sub's result set. The caller knows it is a member.
func (r *ResultSet) clear(sub SubscriptionID, id model.ObjectID) {
	k := slotOf(r.byObj[id], sub)
	r.unlink(sub, r.byObj[id][k].at)
	cut(r.byObj, id, k)
}

// Reconcile incrementally re-evaluates one object against the
// subscriptions that could be affected, flipping memberships and
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
		for _, m := range r.byObj[id] {
			r.unlink(m.sub, m.at)
			evs = append(evs, Event{Sub: m.sub, ID: id, Kind: Leave, T: now})
		}
		delete(r.byObj, id)
		return evs
	}
	// Membership is read from the object's own list of the few
	// subscriptions it is in, rather than from each candidate's result set.
	// set and clear may replace or drop the list, so mem is re-read after
	// each.
	mem := r.byObj[id]
	eval := func(sub SubscriptionID, s Subscription) {
		member := slotOf(mem, sub) >= 0
		match := MatchesAt(o, s, now)
		switch {
		case match && !member:
			r.set(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Enter, T: now})
		case !match && member:
			r.clear(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Leave, T: now})
		default:
			return
		}
		mem = r.byObj[id]
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
	// The walk runs from the end: a leave swap-deletes the slot it visits,
	// moving an already visited one into its place.
	for i := len(mem) - 1; i >= 0; i-- {
		sub := mem[i].sub
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
		if slotOf(r.byObj[id], sub) < 0 {
			r.set(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Enter, T: now})
		}
	}
	// From the end, as in Reconcile: a leave moves a visited member into
	// the index it frees.
	for i := len(r.bySub[sub]) - 1; i >= 0; i-- {
		if id := r.bySub[sub][i]; !next[id] {
			r.clear(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Leave, T: now})
		}
	}
	return SortEvents(evs)
}

// Members returns sub's current result set in ascending ObjectID order.
func (r *ResultSet) Members(sub SubscriptionID) []model.ObjectID {
	out := slices.Clone(r.bySub[sub])
	slices.Sort(out)
	return out
}

// Seed installs ids as members of sub without emitting events — the
// checkpoint-restore path, where memberships are historical fact rather than
// fresh enter transitions. Seeding a member again changes nothing.
func (r *ResultSet) Seed(sub SubscriptionID, ids []model.ObjectID) {
	for _, id := range ids {
		if slotOf(r.byObj[id], sub) < 0 {
			r.set(sub, id)
		}
	}
}

// DropSub forgets sub entirely (both directions), with no events — the
// Unsubscribe semantics.
func (r *ResultSet) DropSub(sub SubscriptionID) {
	for _, id := range r.bySub[sub] {
		cut(r.byObj, id, slotOf(r.byObj[id], sub))
	}
	delete(r.bySub, sub)
}
