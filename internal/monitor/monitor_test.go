package monitor

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

func circleSub(c geom.Vec2, r, horizon float64) Subscription {
	return Subscription{
		Query:   model.RangeQuery{Circle: geom.Circle{C: c, R: r}, Rect: geom.Circle{C: c, R: r}.Bound()},
		Horizon: horizon,
	}
}

// snapshot is what a subscription's full query would return at now: every
// object of objs that the exact predicate accepts, in ascending id order.
func snapshot(objs []model.Object, s Subscription, now float64) []model.ObjectID {
	var ids []model.ObjectID
	for _, o := range objs {
		if MatchesAt(o, s, now) {
			ids = append(ids, o.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestSubscribeSeedsResults: a subscription's seed is its first snapshot,
// applied to an empty result set — one Enter per member.
func TestSubscribeSeedsResults(t *testing.T) {
	// Object heading toward the watched zone: at t=0+h(10) it is at x=100.
	o := model.Object{ID: 1, Pos: geom.V(0, 0), Vel: geom.V(10, 0), T: 0}
	s := circleSub(geom.V(100, 0), 20, 10)
	rs := NewResultSet()
	evs := rs.ApplySnapshot(1, snapshot([]model.Object{o}, s, 0), 0)
	if len(evs) != 1 || evs[0].Kind != Enter || evs[0].ID != 1 {
		t.Fatalf("seed events: %v", evs)
	}
	if got := rs.Members(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("results: %v", got)
	}
}

func TestUpdateEmitsEnterLeave(t *testing.T) {
	subs := map[SubscriptionID]Subscription{1: circleSub(geom.V(100, 0), 20, 10)}
	rs := NewResultSet()
	o := model.Object{ID: 1, Pos: geom.V(0, 0), Vel: geom.V(10, 0), T: 0}
	if evs := rs.Reconcile(1, o, true, 0, nil, true, subs); len(evs) != 1 || evs[0].Kind != Enter {
		t.Fatalf("events: %v", evs)
	}
	// Turn the object away: at t=0 it reports velocity -10; predicted
	// position at t+10 is x=-100 -> leave.
	turned := model.Object{ID: 1, Pos: geom.V(0, 0), Vel: geom.V(-10, 0), T: 0}
	if evs := rs.Reconcile(1, turned, true, 0, nil, true, subs); len(evs) != 1 || evs[0].Kind != Leave {
		t.Fatalf("events: %v", evs)
	}
	if len(rs.Members(1)) != 0 {
		t.Fatal("result set should be empty")
	}
	// Turn it back -> enter again, found through the filtered path: the
	// candidate list names the subscription.
	if evs := rs.Reconcile(1, o, true, 0, []SubscriptionID{1}, false, subs); len(evs) != 1 || evs[0].Kind != Enter {
		t.Fatalf("events: %v", evs)
	}
}

// TestRefreshCatchesTimeDrift: with no report at all, a later snapshot
// evicts the object that drifted out of the predicted region, stamped with
// the snapshot's time.
func TestRefreshCatchesTimeDrift(t *testing.T) {
	// Object moving through the zone: inside the prediction at t=0
	// (predicted x=100), far past it by t=20 (predicted x=300).
	objs := []model.Object{{ID: 1, Pos: geom.V(0, 0), Vel: geom.V(10, 0), T: 0}}
	s := circleSub(geom.V(100, 0), 20, 10)
	rs := NewResultSet()
	if evs := rs.ApplySnapshot(1, snapshot(objs, s, 0), 0); len(evs) != 1 {
		t.Fatalf("seed: %v", evs)
	}
	evs := rs.ApplySnapshot(1, snapshot(objs, s, 20), 20)
	if len(evs) != 1 || evs[0].Kind != Leave || evs[0].T != 20 {
		t.Fatalf("refresh events: %v", evs)
	}
	if len(rs.Members(1)) != 0 {
		t.Fatal("drifted object should have left")
	}
}

func TestDeleteLeavesAllSets(t *testing.T) {
	subs := map[SubscriptionID]Subscription{
		1: circleSub(geom.V(100, 0), 50, 0),
		2: circleSub(geom.V(120, 0), 50, 0),
	}
	rs := NewResultSet()
	o := model.Object{ID: 7, Pos: geom.V(100, 0), Vel: geom.V(0, 0), T: 0}
	if evs := rs.Reconcile(o.ID, o, true, 0, nil, true, subs); len(evs) != 2 {
		t.Fatalf("expected 2 enter events, got %v", evs)
	}
	evs := rs.Reconcile(o.ID, model.Object{}, false, 0, nil, false, nil)
	if len(evs) != 2 {
		t.Fatalf("expected 2 leave events, got %v", evs)
	}
	for _, e := range evs {
		if e.Kind != Leave {
			t.Fatalf("expected leave: %v", e)
		}
	}
	if len(rs.Members(1))+len(rs.Members(2)) != 0 {
		t.Fatal("result sets not emptied")
	}
}

// TestUnsubscribe: DropSub forgets a subscription in both directions with no
// events, so the object's later removal emits nothing for it.
func TestUnsubscribe(t *testing.T) {
	subs := map[SubscriptionID]Subscription{1: circleSub(geom.V(0, 0), 10, 0)}
	rs := NewResultSet()
	o := model.Object{ID: 1, Pos: geom.V(0, 0), Vel: geom.V(0, 0), T: 0}
	rs.Reconcile(o.ID, o, true, 0, nil, true, subs)
	rs.DropSub(1)
	if len(rs.Members(1)) != 0 {
		t.Fatal("membership survived DropSub")
	}
	if evs := rs.Reconcile(o.ID, model.Object{}, false, 0, nil, false, nil); len(evs) != 0 {
		t.Fatalf("events after unsubscribe: %v", evs)
	}
}

// TestSubscriptionValidation: a negative or non-finite horizon or window is
// rejected as an invalid query. A NaN window would otherwise evaluate as a
// time-slice, since NaN > 0 is false.
func TestSubscriptionValidation(t *testing.T) {
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, s := range []Subscription{
			{Query: circleSub(geom.V(0, 0), 5, 0).Query, Horizon: v},
			{Query: circleSub(geom.V(0, 0), 5, 0).Query, Window: v},
		} {
			if err := s.Validate(); !errors.Is(err, model.ErrInvalidQuery) {
				t.Fatalf("horizon %g window %g: Validate = %v, want ErrInvalidQuery", s.Horizon, s.Window, err)
			}
		}
	}
}

// TestEventDeterminism pins the event-ordering contract at the core: two
// identical histories through a ResultSet give byte-identical sorted event
// logs, even though the unfiltered path ranges over the subscription
// registry, a randomized-iteration Go map.
func TestEventDeterminism(t *testing.T) {
	// Three overlapping fences, so most objects produce several events per
	// step — the shuffled-order symptom needs multi-event batches.
	subs := map[SubscriptionID]Subscription{}
	for i, c := range []geom.Vec2{geom.V(500, 500), geom.V(520, 500), geom.V(500, 540)} {
		subs[SubscriptionID(i+1)] = circleSub(c, 300, 0)
	}
	drive := func() []Event {
		rs := NewResultSet()
		var objs []model.Object
		var log []Event
		for i := 0; i < 40; i++ {
			o := model.Object{ID: model.ObjectID(i + 1), Pos: geom.V(float64(i*37%1000), float64(i*53%1000)), Vel: geom.V(float64(i%7-3), float64(i%5-2))}
			objs = append(objs, o)
			log = append(log, SortEvents(rs.Reconcile(o.ID, o, true, 0, nil, true, subs))...)
		}
		// Time passes: every membership is re-derived at once.
		for sub := SubscriptionID(1); sub <= 3; sub++ {
			log = append(log, rs.ApplySnapshot(sub, snapshot(objs, subs[sub], 30), 30)...)
		}
		var evs []Event
		for i := 1; i < len(objs); i += 4 {
			evs = append(evs, rs.Reconcile(objs[i].ID, model.Object{}, false, 30, nil, false, nil)...)
		}
		return append(log, SortEvents(evs)...)
	}
	a, b := drive(), drive()
	if len(a) == 0 {
		t.Fatal("scenario emitted no events")
	}
	if !slices.Equal(a, b) {
		t.Fatalf("event logs differ:\n%v\n%v", a, b)
	}
}
