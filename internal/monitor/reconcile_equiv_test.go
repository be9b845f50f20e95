package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// referenceCandidates is the filter probe before reports were tested against
// their own path: every subscription registered in the object's cell.
func referenceCandidates(f *Filter, o model.Object, now float64) ([]SubscriptionID, bool) {
	ci, along := f.route(o.Vel)
	c := f.classes[ci]
	if along > c.along {
		return nil, false
	}
	p := o.PosAt(now)
	var out []SubscriptionID
	for _, si := range c.cells[f.iy(p.Y)*f.n+f.ix(p.X)] {
		out = append(out, f.slots[si].id)
	}
	return out, true
}

// refSets is the reference's own membership table: each subscription's
// members as a set. It shares no code and no layout with ResultSet, so a slip
// in ResultSet's lists or back-pointers shows up as a difference.
type refSets map[SubscriptionID]map[model.ObjectID]bool

func (m refSets) set(sub SubscriptionID, id model.ObjectID) {
	if m[sub] == nil {
		m[sub] = make(map[model.ObjectID]bool)
	}
	m[sub][id] = true
}

func (m refSets) clear(sub SubscriptionID, id model.ObjectID) {
	delete(m[sub], id)
	if len(m[sub]) == 0 {
		delete(m, sub)
	}
}

func (m refSets) members(sub SubscriptionID) []model.ObjectID {
	var out []model.ObjectID
	for id := range m[sub] {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// applySnapshot is ResultSet.ApplySnapshot on the reference table.
func (m refSets) applySnapshot(sub SubscriptionID, fresh []model.ObjectID, now float64) []Event {
	next := make(map[model.ObjectID]bool, len(fresh))
	var evs []Event
	for _, id := range fresh {
		next[id] = true
		if !m[sub][id] {
			m.set(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Enter, T: now})
		}
	}
	for _, id := range m.members(sub) {
		if !next[id] {
			m.clear(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Leave, T: now})
		}
	}
	return SortEvents(evs)
}

// referenceReconcile is ResultSet.Reconcile as it was before membership was
// read from the object's own set: a lookup in each candidate's result set,
// and a map of the candidates for the covered-members pass. It runs on its
// own table, where an object's memberships are found by scanning every
// subscription.
func referenceReconcile(m refSets, id model.ObjectID, o model.Object, present bool, now float64,
	cands []SubscriptionID, all bool, subs map[SubscriptionID]Subscription) []Event {
	memberOf := func() []SubscriptionID {
		var out []SubscriptionID
		for sub, ids := range m {
			if ids[id] {
				out = append(out, sub)
			}
		}
		return out
	}
	var evs []Event
	if !present {
		for _, sub := range memberOf() {
			m.clear(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Leave, T: now})
		}
		return evs
	}
	eval := func(sub SubscriptionID, s Subscription) {
		member := m[sub][id]
		match := MatchesAt(o, s, now)
		switch {
		case match && !member:
			m.set(sub, id)
			evs = append(evs, Event{Sub: sub, ID: id, Kind: Enter, T: now})
		case !match && member:
			m.clear(sub, id)
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
	if mem := memberOf(); len(mem) > 0 {
		inCands := make(map[SubscriptionID]bool, len(cands))
		for _, sub := range cands {
			inCands[sub] = true
		}
		for _, sub := range mem {
			if inCands[sub] {
				continue
			}
			if s, ok := subs[sub]; ok {
				eval(sub, s)
			}
		}
	}
	return evs
}

// check verifies ResultSet's invariant: both directions hold the same
// (subscription, object) pairs, once each; every slot's index points at its
// own object in the subscription's list; and no empty list or key is left
// behind.
func (r *ResultSet) check() error {
	pairs := 0
	for sub, ids := range r.bySub {
		if len(ids) == 0 {
			return fmt.Errorf("sub %d: empty member list kept", sub)
		}
		pairs += len(ids)
	}
	for id, slots := range r.byObj {
		if len(slots) == 0 {
			return fmt.Errorf("object %d: empty slot list kept", id)
		}
		for k, m := range slots {
			if slotOf(slots, m.sub) != k {
				return fmt.Errorf("object %d: sub %d has two slots", id, m.sub)
			}
			ids := r.bySub[m.sub]
			if m.at < 0 || m.at >= len(ids) || ids[m.at] != id {
				return fmt.Errorf("object %d: slot of sub %d points at index %d of %v", id, m.sub, m.at, ids)
			}
			pairs--
		}
	}
	if pairs != 0 {
		return fmt.Errorf("the subscription lists hold %d more memberships than the object lists", pairs)
	}
	return nil
}

// TestReconcileEquivalence replays seeded histories of reports, removals,
// subscribes, unsubscribes, class changes and explicit Grows through two
// membership tables: a ResultSet fed by AppendCandidates and Reconcile, and
// the reference's own refSets fed by the reference cell probe and the
// reference Reconcile. Every event batch, sorted, must be identical, and so
// must every subscription's members at each checkpoint of the history; the
// ResultSet's invariant (check) holds every 500 steps and at the end.
func TestReconcileEquivalence(t *testing.T) {
	domain := geom.R(0, 0, 10000, 10000)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		f := NewFilter(domain, 32)
		subs := make(map[SubscriptionID]Subscription)
		got, want := NewResultSet(), refSets{}
		objs := make(map[model.ObjectID]model.Object)
		var nextSub SubscriptionID
		clock := 0.0
		var reports, newCands, refCands, matches int

		same := func(step int, what string, a, b []Event) {
			t.Helper()
			SortEvents(a)
			SortEvents(b)
			if !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d %s: events %v, reference %v", seed, step, what, a, b)
			}
		}
		randomSub := func() Subscription {
			c := geom.V(rng.Float64()*11000-500, rng.Float64()*11000-500)
			s := Subscription{Horizon: rng.Float64() * 40}
			switch rng.Intn(4) {
			case 0:
				s.Query.Circle = geom.Circle{C: c, R: 100 + rng.Float64()*500}
				s.Query.Rect = s.Query.Circle.Bound()
			case 1:
				s.Query.Rect = geom.RectFromCenter(c, 100+rng.Float64()*500, 100+rng.Float64()*500)
			case 2:
				s.Query.Rect = geom.RectFromCenter(c, 100+rng.Float64()*500, 100+rng.Float64()*500)
				s.Window = rng.Float64() * 15
			default:
				s.Query = model.RangeQuery{Kind: model.MovingRange,
					Rect: geom.RectFromCenter(c, 100+rng.Float64()*400, 100+rng.Float64()*400),
					Vel:  geom.V(rng.Float64()*60-30, rng.Float64()*60-30)}
				s.Window = rng.Float64() * 15
			}
			return s
		}
		subscribe := func(step int) {
			nextSub++
			s := randomSub()
			subs[nextSub] = s
			f.Add(nextSub, s)
			var fresh []model.ObjectID
			for id, o := range objs {
				if MatchesAt(o, s, clock) {
					fresh = append(fresh, id)
				}
			}
			same(step, "subscribe", got.ApplySnapshot(nextSub, fresh, clock), want.applySnapshot(nextSub, fresh, clock))
		}
		randomVel := func() geom.Vec2 {
			speed := 5 + rng.Float64()*40
			switch rng.Intn(5) {
			case 0, 1:
				return geom.V(math.Copysign(speed, rng.Float64()-0.5), rng.NormFloat64())
			case 2, 3:
				return geom.V(rng.NormFloat64(), math.Copysign(speed, rng.Float64()-0.5))
			}
			ang := rng.Float64() * 2 * math.Pi
			return geom.V(speed*math.Cos(ang), speed*math.Sin(ang))
		}
		checkTable := func(step int) {
			if err := got.check(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if len(got.bySub) != len(want) {
				t.Fatalf("seed %d step %d: %d subscriptions with members, reference %d", seed, step, len(got.bySub), len(want))
			}
		}
		checkMembers := func(step int) {
			for id := range subs {
				if a, b := got.Members(id), want.members(id); !slices.Equal(a, b) {
					t.Fatalf("seed %d step %d: sub %d members %v, reference %v", seed, step, id, a, b)
				}
			}
		}

		for i := 0; i < 80; i++ {
			subscribe(-1)
		}
		var scratch []SubscriptionID
		const steps = 40000
		for step := 0; step < steps; step++ {
			clock += 0.01
			switch x := rng.Intn(1000); {
			case x < 20: // remove
				id := model.ObjectID(1 + rng.Intn(500))
				delete(objs, id)
				same(step, "remove", got.Reconcile(id, model.Object{}, false, clock, nil, false, nil),
					referenceReconcile(want, id, model.Object{}, false, clock, nil, false, nil))
			case x < 30:
				subscribe(step)
			case x < 38: // unsubscribe
				ids := make([]SubscriptionID, 0, len(subs))
				for id := range subs {
					ids = append(ids, id)
				}
				if len(ids) == 0 {
					continue
				}
				slices.Sort(ids)
				id := ids[rng.Intn(len(ids))]
				delete(subs, id)
				f.Remove(id)
				got.DropSub(id)
				delete(want, id)
			case x < 40: // a fresh velocity analysis
				var classes []VelocityClass
				if rng.Intn(3) > 0 {
					classes = []VelocityClass{{Axis: geom.V(1, 0), Perp: 1 + rng.Float64()*3}, {Axis: geom.V(0, 1), Perp: 1 + rng.Float64()*3}}
				}
				f.SetClasses(classes, subs)
			case x < 42:
				f.Grow(randomVel().Scale(1+rng.Float64()), subs)
			default: // report
				id := model.ObjectID(1 + rng.Intn(500))
				o, seen := objs[id]
				if !seen || rng.Intn(4) == 0 {
					o.Pos = geom.V(rng.Float64()*10000, rng.Float64()*10000)
				} else {
					o.Pos = o.PosAt(clock)
				}
				o.ID, o.Vel, o.T = id, randomVel(), max(0, clock-rng.Float64()*3)
				objs[id] = o
				var ok bool
				scratch, ok = f.AppendCandidates(scratch[:0], o, clock)
				ref, refOK := referenceCandidates(f, o, clock)
				if ok != refOK {
					t.Fatalf("seed %d step %d: ok %v, reference %v", seed, step, ok, refOK)
				}
				if ok {
					reports++
					newCands += len(scratch)
					refCands += len(ref)
					for _, sid := range scratch {
						if MatchesAt(o, subs[sid], clock) {
							matches++
						}
					}
				}
				same(step, "report", got.Reconcile(id, o, true, clock, scratch, !ok, subs),
					referenceReconcile(want, id, o, true, clock, ref, !refOK, subs))
				if !ok {
					f.Grow(o.Vel, subs)
				}
			}
			if step%500 == 0 {
				checkTable(step)
			}
			if step%5000 == 0 {
				checkMembers(step)
			}
		}
		checkTable(steps)
		checkMembers(steps)
		if reports == 0 || newCands >= refCands {
			t.Fatalf("seed %d: %d filtered reports, %d candidates against the reference's %d: the path test removed nothing",
				seed, reports, newCands, refCands)
		}
		t.Logf("seed %d: %d filtered reports; candidates per report %.3f (reference %.3f); matches per candidate %.3f (reference %.3f)",
			seed, reports, float64(newCands)/float64(reports), float64(refCands)/float64(reports),
			float64(matches)/float64(newCands), float64(matches)/float64(refCands))
	}
}
