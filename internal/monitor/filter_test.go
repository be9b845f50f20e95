package monitor

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// TestResultsSorted: Members returns ascending ObjectIDs, not Go map
// iteration order.
func TestResultsSorted(t *testing.T) {
	subs := map[SubscriptionID]Subscription{1: circleSub(geom.V(0, 0), 1e6, 0)}
	rs := NewResultSet()
	rng := rand.New(rand.NewSource(7))
	for _, oid := range rng.Perm(64) {
		o := model.Object{ID: model.ObjectID(oid + 1), T: 0}
		rs.Reconcile(o.ID, o, true, 0, nil, true, subs)
	}
	got := rs.Members(1)
	if len(got) != 64 {
		t.Fatalf("got %d members", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("Members not sorted: %v", got)
	}
}

// TestSubscriptionValidateValues: a region template that every instantiation
// would reject — an empty (inverted) rectangle with no circle, a negative
// radius — fails Validate once, as an invalid query.
func TestSubscriptionValidateValues(t *testing.T) {
	ok := circleSub(geom.V(0, 0), 5, 3)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid subscription rejected: %v", err)
	}
	for _, bad := range []Subscription{
		{Query: ok.Query, Horizon: -1},
		{Query: ok.Query, Window: -1},
		{Query: model.RangeQuery{Rect: geom.EmptyRect()}, Horizon: 10},
		{Query: model.RangeQuery{Circle: geom.Circle{R: -2}}},
	} {
		if err := bad.Validate(); !errors.Is(err, model.ErrInvalidQuery) {
			t.Fatalf("invalid subscription %+v: Validate = %v, want ErrInvalidQuery", bad, err)
		}
	}
}

// TestReconcileMatchesSnapshot drives random incremental reconciles and
// checks the ResultSet against from-scratch predicate evaluation.
func TestReconcileMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	subs := make(map[SubscriptionID]Subscription)
	for i := 1; i <= 12; i++ {
		subs[SubscriptionID(i)] = circleSub(
			geom.V(rng.Float64()*1000, rng.Float64()*1000), 150+rng.Float64()*200, rng.Float64()*20)
	}
	rs := NewResultSet()
	objs := map[model.ObjectID]model.Object{}
	now := 0.0
	for step := 0; step < 400; step++ {
		id := model.ObjectID(1 + rng.Intn(60))
		if rng.Intn(6) == 0 {
			delete(objs, id)
			evs := rs.Reconcile(id, model.Object{}, false, now, nil, false, nil)
			for _, e := range evs {
				if e.Kind != Leave {
					t.Fatalf("removal emitted %v", e)
				}
			}
			continue
		}
		o := model.Object{
			ID:  id,
			Pos: geom.V(rng.Float64()*1000, rng.Float64()*1000),
			Vel: geom.V(rng.Float64()*40-20, rng.Float64()*40-20),
			T:   now,
		}
		objs[id] = o
		rs.Reconcile(id, o, true, now, nil, true, subs)
		now += 0.25
	}
	for sid, s := range subs {
		want := map[model.ObjectID]bool{}
		for id, o := range objs {
			if MatchesAt(o, s, now-0.25) {
				want[id] = true
			}
		}
		got := rs.Members(sid)
		// Memberships are only re-derived when their object reports, so
		// time drift can make them stale; replay a snapshot first.
		var fresh []model.ObjectID
		for id := range want {
			fresh = append(fresh, id)
		}
		rs.ApplySnapshot(sid, fresh, now)
		got = rs.Members(sid)
		if len(got) != len(want) {
			t.Fatalf("sub %d: %d members, want %d", sid, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("sub %d: stale member %d", sid, id)
			}
		}
	}
}

// TestFilterConservative is the filter's soundness property: for random
// subscriptions, classes, and reports, every subscription the object
// actually matches must appear in the candidate list (or the probe must
// demand the unfiltered fallback).
func TestFilterConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	domain := geom.R(0, 0, 10000, 10000)
	axes := []geom.Vec2{geom.V(1, 0), geom.V(1, 1).Normalize()}

	for round := 0; round < 20; round++ {
		f := NewFilter(domain, 32)
		subs := make(map[SubscriptionID]Subscription)
		for i := 1; i <= 40; i++ {
			s := Subscription{
				Query: model.RangeQuery{Circle: geom.Circle{
					C: geom.V(rng.Float64()*12000-1000, rng.Float64()*12000-1000),
					R: 50 + rng.Float64()*800,
				}},
				Horizon: rng.Float64() * 40,
				Window:  rng.Float64() * 10,
			}
			s.Query.Rect = s.Query.Circle.Bound()
			if i%5 == 0 {
				// Moving-range subscription: the region translates with its
				// own velocity during the window.
				s.Query = model.RangeQuery{
					Kind: model.MovingRange,
					Rect: geom.RectFromCenter(geom.V(rng.Float64()*10000, rng.Float64()*10000),
						100+rng.Float64()*600, 100+rng.Float64()*600),
					Vel: geom.V(rng.Float64()*60-30, rng.Float64()*60-30),
				}
				s.Window = rng.Float64() * 15
			}
			id := SubscriptionID(i)
			subs[id] = s
			f.Add(id, s)
		}
		if round%2 == 1 {
			f.SetClasses([]VelocityClass{
				{Axis: axes[0], Perp: 3 + rng.Float64()*5},
				{Axis: axes[1], Perp: 3 + rng.Float64()*5},
			}, subs)
		}
		for i := 0; i < 300; i++ {
			speed := rng.Float64() * 60
			ang := rng.Float64() * 2 * math.Pi
			o := model.Object{
				ID:  model.ObjectID(i),
				Pos: geom.V(rng.Float64()*11000-500, rng.Float64()*11000-500),
				Vel: geom.V(speed*math.Cos(ang), speed*math.Sin(ang)),
				T:   float64(i) / 10,
			}
			now := o.T + rng.Float64()*5 // clock may run ahead of the report
			cands, ok := f.Candidates(o, now)
			if !ok {
				f.Grow(o.Vel, subs)
				cands, ok = f.Candidates(o, now)
				if !ok {
					t.Fatal("probe failed after Grow")
				}
			}
			inCands := make(map[SubscriptionID]bool, len(cands))
			for _, id := range cands {
				inCands[id] = true
			}
			for id, s := range subs {
				if MatchesAt(o, s, now) && !inCands[id] {
					t.Fatalf("round %d: filter dropped matching sub %d for %v at now=%g (classes=%d)",
						round, id, o, now, f.NumClasses())
				}
			}
		}
	}
}

// TestFilterRemove checks that removed subscriptions stop appearing as
// candidates in every class.
func TestFilterRemove(t *testing.T) {
	f := NewFilter(geom.R(0, 0, 1000, 1000), 8)
	s := circleSub(geom.V(500, 500), 400, 10)
	f.Add(1, s)
	f.Add(2, s)
	f.SetClasses([]VelocityClass{{Axis: geom.V(1, 0), Perp: 2}}, map[SubscriptionID]Subscription{1: s, 2: s})
	f.Grow(geom.V(5, 0), map[SubscriptionID]Subscription{1: s, 2: s})
	f.Remove(1)
	o := model.Object{ID: 9, Pos: geom.V(500, 500), Vel: geom.V(5, 0), T: 0}
	cands, ok := f.Candidates(o, 0)
	if !ok {
		t.Fatal("probe not covered")
	}
	for _, id := range cands {
		if id == 1 {
			t.Fatal("removed subscription still a candidate")
		}
	}
	found := false
	for _, id := range cands {
		found = found || id == 2
	}
	if !found {
		t.Fatal("remaining subscription missing from candidates")
	}
}
