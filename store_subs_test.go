package vpindex_test

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	vpindex "repro"
	"repro/internal/model"
)

// drainEvents empties the Store's event channel without blocking. The
// oracle driver is single-threaded and every verb emits its batch before
// returning, so a non-blocking drain right after a verb collects exactly
// that verb's deltas.
func drainEvents(ch <-chan vpindex.MonitorEvent) []vpindex.MonitorEvent {
	var out []vpindex.MonitorEvent
	for {
		select {
		case e := <-ch:
			out = append(out, e)
		default:
			return out
		}
	}
}

// canonEvents sorts an event slice by every field so two streams can be
// compared step-by-step regardless of intra-batch grouping.
func canonEvents(evs []vpindex.MonitorEvent) []vpindex.MonitorEvent {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Sub != evs[j].Sub {
			return evs[i].Sub < evs[j].Sub
		}
		if evs[i].ID != evs[j].ID {
			return evs[i].ID < evs[j].ID
		}
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind < evs[j].Kind
		}
		return evs[i].T < evs[j].T
	})
	return evs
}

func eventsEqual(t *testing.T, step int, verb string, got, want []vpindex.MonitorEvent) {
	t.Helper()
	got, want = canonEvents(got), canonEvents(want)
	if len(got) != len(want) {
		t.Fatalf("step %d (%s): %d events vs oracle %d\n got: %v\nwant: %v",
			step, verb, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d (%s): event %d differs: %+v vs oracle %+v",
				step, verb, i, got[i], want[i])
		}
	}
}

// subModel is the differential oracle's reference for Store subscriptions:
// the objects, the subscriptions, one membership set per subscription and a
// monotone clock. Every expected delta comes from the exact predicate over the
// (subscription, object) pairs a verb can affect, so it shares no code with
// the engine under test — no ResultSet, no filter, no index.
type subModel struct {
	objs    map[vpindex.ObjectID]vpindex.Object
	subs    map[vpindex.SubscriptionID]vpindex.Subscription
	members map[vpindex.SubscriptionID]map[vpindex.ObjectID]bool
	nextID  vpindex.SubscriptionID
	clock   float64
}

func newSubModel() *subModel {
	return &subModel{
		objs:    map[vpindex.ObjectID]vpindex.Object{},
		subs:    map[vpindex.SubscriptionID]vpindex.Subscription{},
		members: map[vpindex.SubscriptionID]map[vpindex.ObjectID]bool{},
	}
}

func (m *subModel) advance(t float64) { m.clock = max(m.clock, t) }

// eval re-tests one pair at now and appends the delta it causes, if any.
func (m *subModel) eval(evs []vpindex.MonitorEvent, sub vpindex.SubscriptionID, o vpindex.Object, now float64) []vpindex.MonitorEvent {
	in := model.Matches(o, m.subs[sub].QueryAt(now))
	switch set := m.members[sub]; {
	case in && !set[o.ID]:
		set[o.ID] = true
		return append(evs, vpindex.MonitorEvent{Sub: sub, ID: o.ID, Kind: vpindex.Enter, T: now})
	case !in && set[o.ID]:
		delete(set, o.ID)
		return append(evs, vpindex.MonitorEvent{Sub: sub, ID: o.ID, Kind: vpindex.Leave, T: now})
	}
	return evs
}

// report lands records with distinct ids and evaluates each against every
// subscription at one instant: the clock advanced to their largest time.
func (m *subModel) report(objs ...vpindex.Object) []vpindex.MonitorEvent {
	var evs []vpindex.MonitorEvent
	for _, o := range objs {
		m.advance(o.T)
		m.objs[o.ID] = o
	}
	for sub := range m.subs {
		for _, o := range objs {
			evs = m.eval(evs, sub, o, m.clock)
		}
	}
	return evs
}

// remove drops the object from every result set at the clock; false when the
// id is unknown.
func (m *subModel) remove(id vpindex.ObjectID) ([]vpindex.MonitorEvent, bool) {
	if _, ok := m.objs[id]; !ok {
		return nil, false
	}
	delete(m.objs, id)
	var evs []vpindex.MonitorEvent
	for sub, set := range m.members {
		if set[id] {
			delete(set, id)
			evs = append(evs, vpindex.MonitorEvent{Sub: sub, ID: id, Kind: vpindex.Leave, T: m.clock})
		}
	}
	return evs, true
}

// subscribe registers s under the next id and seeds it at now.
func (m *subModel) subscribe(s vpindex.Subscription, now float64) (vpindex.SubscriptionID, []vpindex.MonitorEvent) {
	m.advance(now)
	m.nextID++
	m.subs[m.nextID] = s
	m.members[m.nextID] = map[vpindex.ObjectID]bool{}
	return m.nextID, m.reevaluate(nil, m.nextID, now)
}

func (m *subModel) unsubscribe(id vpindex.SubscriptionID) {
	delete(m.subs, id)
	delete(m.members, id)
}

// refresh re-evaluates every (subscription, object) pair at now.
func (m *subModel) refresh(now float64) []vpindex.MonitorEvent {
	m.advance(now)
	var evs []vpindex.MonitorEvent
	for sub := range m.subs {
		evs = m.reevaluate(evs, sub, now)
	}
	return evs
}

func (m *subModel) reevaluate(evs []vpindex.MonitorEvent, sub vpindex.SubscriptionID, now float64) []vpindex.MonitorEvent {
	for _, o := range m.objs {
		evs = m.eval(evs, sub, o, now)
	}
	return evs
}

func (m *subModel) results(id vpindex.SubscriptionID) []vpindex.ObjectID {
	out := []vpindex.ObjectID{}
	for oid := range m.members[id] {
		out = append(out, oid)
	}
	return sortedIDs(out)
}

// TestStoreSubscriptionDifferentialOracle is the brute-force differential
// oracle for Store-native subscriptions: a single-threaded random script of
// reports, uniform-time batches, removes, subscribes, unsubscribes and
// refreshes is mirrored into subModel, and after every step the Store's event
// stream (drained from Events()) must match the model's deltas exactly, and
// all result sets must agree. The whole run races a background goroutine
// firing manual repartition swaps, so under -race this also proves the
// engine's evaluation state survives epoch swaps untouched.
func TestStoreSubscriptionDifferentialOracle(t *testing.T) {
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(4),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(testSample(800, 9)),
		vpindex.WithSeed(5),
		vpindex.WithEventBuffer(1<<16, vpindex.BlockOnFull),
	)
	if err != nil {
		t.Fatal(err)
	}
	mirror := newSubModel()
	ch := store.Events()

	// Background repartition swaps racing the whole script.
	var (
		stop  atomic.Bool
		swaps sync.WaitGroup
	)
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		waitForObjects(store, 50)
		for !stop.Load() {
			if err := store.Repartition(); err != nil {
				t.Errorf("repartition: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	rng := rand.New(rand.NewSource(1234))
	newSub := func() vpindex.Subscription {
		return vpindex.Subscription{
			Query: vpindex.SliceQuery(vpindex.Circle{
				C: vpindex.V(rng.Float64()*20000, rng.Float64()*20000),
				R: 1200 + rng.Float64()*2200,
			}, 0, 0),
			Horizon: rng.Float64() * 30,
			Window:  float64(rng.Intn(2)) * rng.Float64() * 10,
		}
	}
	live := []vpindex.SubscriptionID{}
	now := 0.0
	object := func() vpindex.Object {
		o := testObject(1+rng.Intn(250), rng)
		o.T = now
		return o
	}

	checkResults := func(step int) {
		for _, id := range live {
			got, err := store.SubscriptionResults(id)
			if err != nil {
				t.Fatalf("step %d: results %d: %v", step, id, err)
			}
			if want := mirror.results(id); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: sub %d result set %v vs oracle %v", step, id, got, want)
			}
		}
	}
	subscribe := func(step int) {
		s := newSub()
		sid, seed, err := store.Subscribe(s, now)
		if err != nil {
			t.Fatalf("step %d subscribe: %v", step, err)
		}
		mid, mseed := mirror.subscribe(s, now)
		if sid != mid {
			t.Fatalf("step %d: subscription ids diverged: %d vs %d", step, sid, mid)
		}
		live = append(live, sid)
		eventsEqual(t, step, "subscribe-seed", seed, mseed)
		eventsEqual(t, step, "subscribe-stream", drainEvents(ch), mseed)
	}

	// Seed a few subscriptions before traffic.
	for i := 0; i < 4; i++ {
		subscribe(-i)
	}

	for step := 0; step < 1200; step++ {
		now += 0.25
		switch r := rng.Intn(20); {
		case r < 10: // single report
			o := object()
			if err := store.Report(o); err != nil {
				t.Fatalf("step %d report: %v", step, err)
			}
			eventsEqual(t, step, "report", drainEvents(ch), mirror.report(o))
		case r < 13: // uniform-time batch
			batch := make([]vpindex.Object, 0, 12)
			seen := map[vpindex.ObjectID]bool{}
			for i := 0; i < 12; i++ {
				o := object()
				// One record per ID per batch: a batch evaluates each id's
				// last record, and the model lands distinct ids.
				if seen[o.ID] {
					continue
				}
				seen[o.ID] = true
				batch = append(batch, o)
			}
			if err := store.ReportBatch(batch); err != nil {
				t.Fatalf("step %d batch: %v", step, err)
			}
			eventsEqual(t, step, "batch", drainEvents(ch), mirror.report(batch...))
		case r < 16: // remove
			id := vpindex.ObjectID(1 + rng.Intn(250))
			serr := store.Remove(id)
			mevs, known := mirror.remove(id)
			if (serr == nil) != known {
				t.Fatalf("step %d remove %d: store err %v, oracle knows the id: %v", step, id, serr, known)
			}
			if serr != nil && !errors.Is(serr, vpindex.ErrNotFound) {
				t.Fatalf("step %d remove: %v", step, serr)
			}
			eventsEqual(t, step, "remove", drainEvents(ch), mevs)
		case r < 17 && len(live) < 10: // subscribe
			subscribe(step)
		case r < 18 && len(live) > 2: // unsubscribe
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := store.Unsubscribe(id); err != nil {
				t.Fatalf("step %d unsubscribe: %v", step, err)
			}
			mirror.unsubscribe(id)
			if evs := drainEvents(ch); len(evs) != 0 {
				t.Fatalf("step %d: unsubscribe emitted %v", step, evs)
			}
			if _, err := store.SubscriptionResults(id); !errors.Is(err, vpindex.ErrNotFound) {
				t.Fatalf("step %d: results after unsubscribe: %v", step, err)
			}
		default: // refresh
			sevs, err := store.RefreshSubscriptions(now)
			if err != nil {
				t.Fatalf("step %d refresh: %v", step, err)
			}
			mevs := mirror.refresh(now)
			eventsEqual(t, step, "refresh-stream", drainEvents(ch), mevs)
			eventsEqual(t, step, "refresh", sevs, mevs)
		}
		if step%100 == 99 {
			checkResults(step)
		}
	}
	stop.Store(true)
	swaps.Wait()

	if n := store.Stats().Repartitions; n < 1 {
		t.Fatalf("no repartition swap raced the oracle (got %d)", n)
	}
	// Final refresh on both sides, then a last full comparison.
	now += 1
	sevs, err := store.RefreshSubscriptions(now)
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, -1, "final refresh", sevs, mirror.refresh(now))
	drainEvents(ch)
	checkResults(-1)
}

// TestStoreEventDeterminism pins the event-ordering contract on the Store:
// every emitting verb delivers its batch sorted by (Sub, ID, Kind), so two
// identical runs produce identical event streams even though a batch is
// collected in the order its reconciles ran, over several stripes, and the
// unfiltered path ranges over the registry, a randomized-iteration Go map.
func TestStoreEventDeterminism(t *testing.T) {
	drive := func() []vpindex.MonitorEvent {
		store, err := vpindex.Open(vpindex.WithShards(4), vpindex.WithEventBuffer(1<<12, vpindex.BlockOnFull))
		if err != nil {
			t.Fatal(err)
		}
		ch := store.Events()
		var log []vpindex.MonitorEvent
		emitted := func(verb string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", verb, err)
			}
			evs := drainEvents(ch)
			if !slices.IsSortedFunc(evs, func(a, b vpindex.MonitorEvent) int {
				return cmp.Or(cmp.Compare(a.Sub, b.Sub), cmp.Compare(a.ID, b.ID), cmp.Compare(a.Kind, b.Kind))
			}) {
				t.Fatalf("%s batch not sorted: %v", verb, evs)
			}
			log = append(log, evs...)
		}
		// Three overlapping fences, so most objects produce several events
		// per verb — the shuffled-order symptom needs multi-event batches.
		for _, c := range []vpindex.Vec2{vpindex.V(500, 500), vpindex.V(520, 500), vpindex.V(500, 540)} {
			_, _, err := store.Subscribe(vpindex.Subscription{Query: vpindex.SliceQuery(vpindex.Circle{C: c, R: 300}, 0, 0)}, 0)
			emitted("subscribe", err)
		}
		rng := rand.New(rand.NewSource(31))
		objs := make([]vpindex.Object, 40)
		for i := range objs {
			objs[i] = vpindex.Object{
				ID:  vpindex.ObjectID(i + 1),
				Pos: vpindex.V(rng.Float64()*1000, rng.Float64()*1000),
				Vel: vpindex.V(rng.Float64()*20-10, rng.Float64()*20-10),
			}
		}
		emitted("batch", store.ReportBatch(objs[:20]))
		for _, o := range objs[20:] {
			emitted("report", store.Report(o))
		}
		// Time passes: every membership is re-derived at once.
		_, err = store.RefreshSubscriptions(30)
		emitted("refresh", err)
		// Move a third of the objects far away, then remove a quarter.
		for i := 0; i < len(objs); i += 3 {
			o := objs[i]
			o.Pos, o.T = vpindex.V(5000, 5000), 30
			emitted("re-report", store.Report(o))
		}
		for i := 1; i < len(objs); i += 4 {
			emitted("remove", store.Remove(objs[i].ID))
		}
		_, err = store.RefreshSubscriptions(60)
		emitted("refresh2", err)
		return log
	}
	a, b := drive(), drive()
	if len(a) == 0 {
		t.Fatal("scenario emitted no events")
	}
	if !slices.Equal(a, b) {
		t.Fatalf("event streams differ:\n%v\n%v", a, b)
	}
}

// TestStoreRefreshCatchesTimeDrift: an object that never reports again
// drifts out of a subscription's predicted region, and RefreshSubscriptions
// — not a report — evicts it, stamped with the refresh time.
func TestStoreRefreshCatchesTimeDrift(t *testing.T) {
	store, err := vpindex.Open(vpindex.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	// Inside the prediction at t=0 (predicted x=100), far past it by t=20
	// (predicted x=300).
	if err := store.Report(vpindex.Object{ID: 1, Pos: vpindex.V(0, 0), Vel: vpindex.V(10, 0)}); err != nil {
		t.Fatal(err)
	}
	sub := vpindex.Subscription{Query: vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(100, 0), R: 20}, 0, 0), Horizon: 10}
	id, seed, err := store.Subscribe(sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed) != 1 || seed[0].Kind != vpindex.Enter {
		t.Fatalf("seed: %v", seed)
	}
	evs, err := store.RefreshSubscriptions(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != vpindex.Leave || evs[0].ID != 1 || evs[0].T != 20 {
		t.Fatalf("refresh events: %v", evs)
	}
	if got, err := store.SubscriptionResults(id); err != nil || len(got) != 0 {
		t.Fatalf("drifted object still a member: %v, %v", got, err)
	}
}

// TestStoreSubscribeValidation pins the up-front validation and typed
// errors of the Store subscription surface.
func TestStoreSubscribeValidation(t *testing.T) {
	store, err := vpindex.Open(vpindex.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Subscribe(vpindex.Subscription{Horizon: -1}, 0); err == nil {
		t.Fatal("negative horizon accepted")
	}
	bad := vpindex.Subscription{Query: vpindex.RangeQuery{Circle: vpindex.Circle{R: -3}}}
	if _, _, err := store.Subscribe(bad, 0); err == nil {
		t.Fatal("negative radius accepted")
	}
	if err := store.Unsubscribe(99); !errors.Is(err, vpindex.ErrNotFound) {
		t.Fatalf("unsubscribe unknown: %v", err)
	}
	if _, err := store.SubscriptionResults(99); !errors.Is(err, vpindex.ErrNotFound) {
		t.Fatalf("results unknown: %v", err)
	}
	if store.NumSubscriptions() != 0 {
		t.Fatalf("subscriptions leaked: %d", store.NumSubscriptions())
	}
}

// TestStoreEventStreamDropOldest pins the lossy back-pressure policy: with
// a full buffer and no consumer, the oldest deltas are dropped, counted,
// and the newest retained.
func TestStoreEventStreamDropOldest(t *testing.T) {
	store, err := vpindex.Open(
		vpindex.WithShards(2),
		vpindex.WithEventBuffer(4, vpindex.DropOldest),
	)
	if err != nil {
		t.Fatal(err)
	}
	ch := store.Events()
	// One subscription covering everything: every first report enters.
	if _, _, err := store.Subscribe(vpindex.Subscription{
		Query: vpindex.RectSliceQuery(vpindex.R(-1e9, -1e9, 1e9, 1e9), 0, 0),
	}, 0); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 1; i <= n; i++ {
		if err := store.Report(vpindex.Object{ID: vpindex.ObjectID(i), Pos: vpindex.V(float64(i), 0), T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.DroppedEvents(); got != n-4 {
		t.Fatalf("dropped %d events, want %d", got, n-4)
	}
	evs := drainEvents(ch)
	if len(evs) != 4 {
		t.Fatalf("buffer held %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := vpindex.ObjectID(n - 3 + i); e.ID != want || e.Kind != vpindex.Enter {
			t.Fatalf("retained event %d is %+v, want enter of %d", i, e, want)
		}
	}
}

// TestStoreSubscriptionsSurviveRepartition pins the epoch-swap contract
// directly: a swap changes no result set, re-seeds the filter's velocity
// classes, and evaluation keeps working afterwards.
func TestStoreSubscriptionsSurviveRepartition(t *testing.T) {
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithShards(4),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(testSample(600, 3)),
		vpindex.WithSeed(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 1; i <= 400; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	sub := vpindex.Subscription{
		Query:   vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(10000, 10000), R: 5000}, 0, 0),
		Horizon: 20,
	}
	id, seed, err := store.Subscribe(sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed) == 0 {
		t.Fatal("seed empty — pick a bigger region")
	}
	if got := store.SubscriptionFilterClasses(); got != 3 {
		t.Fatalf("filter classes before swap: %d, want 3 (2 DVAs + catch-all)", got)
	}
	before, err := store.SubscriptionResults(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Repartition(); err != nil {
		t.Fatal(err)
	}
	after, err := store.SubscriptionResults(id)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("result set changed across swap: %v -> %v", before, after)
	}
	if got := store.SubscriptionFilterClasses(); got != 3 {
		t.Fatalf("filter classes after swap: %d, want 3", got)
	}
	// Evaluation still works post-swap: park an object inside the region.
	o := vpindex.Object{ID: 9999, Pos: vpindex.V(10000, 10000), Vel: vpindex.V(0, 0), T: 1}
	if err := store.Report(o); err != nil {
		t.Fatal(err)
	}
	got, err := store.SubscriptionResults(id)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range got {
		found = found || m == 9999
	}
	if !found {
		t.Fatal("post-swap report not evaluated into the result set")
	}
}

// waitForObjects polls until the store holds n objects, or 10 s have passed:
// a repartition analyzes the live objects, so a swap loop racing a script
// starts once the script has reported some.
func waitForObjects(store *vpindex.Store, n int) {
	deadline := time.Now().Add(10 * time.Second)
	for store.Len() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// TestStoreSubscriptionsConcurrentStorm extends the PR 3 -race oracle to
// the subscription engine: writers with disjoint ID ranges, readers polling
// result sets and refreshing, and manual repartition swaps all race; after
// quiescence a final refresh must leave every subscription's result set
// exactly equal to a brute-force evaluation over the merged final states.
func TestStoreSubscriptionsConcurrentStorm(t *testing.T) {
	const (
		writers   = 4
		perWriter = 300
		idsPer    = 250
	)
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(4),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(testSample(600, 13)),
		vpindex.WithSeed(6),
		vpindex.WithEventBuffer(256, vpindex.DropOldest),
	)
	if err != nil {
		t.Fatal(err)
	}
	// A consumer drains the stream throughout, so emission code runs under
	// race with the storm no matter the policy.
	done := make(chan struct{})
	var consumed atomic.Int64
	go func() {
		ch := store.Events()
		for {
			select {
			case <-ch:
				consumed.Add(1)
			case <-done:
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(77))
	subs := make([]vpindex.SubscriptionID, 0, 8)
	var subsMeta []vpindex.Subscription
	for i := 0; i < 8; i++ {
		s := vpindex.Subscription{
			Query: vpindex.SliceQuery(vpindex.Circle{
				C: vpindex.V(rng.Float64()*20000, rng.Float64()*20000),
				R: 2000 + rng.Float64()*3000,
			}, 0, 0),
			Horizon: rng.Float64() * 25,
		}
		id, _, err := store.Subscribe(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, id)
		subsMeta = append(subsMeta, s)
	}

	final := make([]map[vpindex.ObjectID]*vpindex.Object, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers+3)
	for w := 0; w < writers; w++ {
		final[w] = make(map[vpindex.ObjectID]*vpindex.Object)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + w)))
			base := w * idsPer
			for i := 0; i < perWriter; i++ {
				id := base + 1 + rng.Intn(idsPer)
				o := testObject(id, rng)
				o.T = float64(i) / 8
				if i%9 == 8 {
					err := store.Remove(o.ID)
					if err != nil && !errors.Is(err, vpindex.ErrNotFound) {
						errs <- fmt.Errorf("writer %d remove: %w", w, err)
						return
					}
					if err == nil {
						delete(final[w], o.ID)
					}
					continue
				}
				if err := store.Report(o); err != nil {
					errs <- fmt.Errorf("writer %d report: %w", w, err)
					return
				}
				final[w][o.ID] = &o
			}
		}(w)
	}
	// Readers poll results and refresh; a maintenance goroutine swaps.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			for _, id := range subs {
				if _, err := store.SubscriptionResults(id); err != nil {
					errs <- fmt.Errorf("results: %w", err)
					return
				}
			}
			if _, err := store.RefreshSubscriptions(float64(i)); err != nil {
				errs <- fmt.Errorf("refresh: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		waitForObjects(store, 50)
		for i := 0; i < 3; i++ {
			if err := store.Repartition(); err != nil {
				errs <- fmt.Errorf("repartition: %w", err)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesce: one final refresh converges any memberships a racing pair of
	// same-moment evaluations left behind, then compare against brute force.
	now := float64(perWriter)/8 + 1
	if _, err := store.RefreshSubscriptions(now); err != nil {
		t.Fatal(err)
	}
	close(done)

	oracle := model.NewBruteForce()
	for w := range final {
		for _, o := range final[w] {
			if err := oracle.Insert(*o); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, id := range subs {
		got, err := store.SubscriptionResults(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Search(subsMeta[i].QueryAt(now))
		if err != nil {
			t.Fatal(err)
		}
		want = sortedIDs(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("sub %d: %v vs oracle %v", id, got, want)
		}
	}
	if consumed.Load() == 0 {
		t.Fatal("storm emitted no events")
	}
}

// TestSubscriptionConcurrentSameIDMembership: goroutines report the same ids
// at one instant, some one record at a time and some in batches, each record
// inside or outside a subscription's region at random. A record's membership
// is reconciled in the critical section that installs it in the table, so
// whichever report of an id lands last also decided its membership: at
// quiescence every membership equals the exact predicate on the stored record.
func TestSubscriptionConcurrentSameIDMembership(t *testing.T) {
	const (
		ids     = 64
		writers = 4
		rounds  = 25
		now     = 100.0
	)
	store, err := vpindex.Open(vpindex.WithKind(vpindex.Bx), vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)), vpindex.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	region := vpindex.R(5000, 5000, 15000, 15000)
	sub := vpindex.Subscription{Query: vpindex.RectSliceQuery(region, 0, 0), Horizon: 5}
	sid, _, err := store.Subscribe(sub, now)
	if err != nil {
		t.Fatal(err)
	}
	object := func(id int, rng *rand.Rand) vpindex.Object {
		at := vpindex.V(1000+rng.Float64()*3000, 1000+rng.Float64()*3000) // outside
		if rng.Intn(2) == 0 {
			at = vpindex.V(6000+rng.Float64()*8000, 6000+rng.Float64()*8000) // inside
		}
		return vpindex.Object{ID: vpindex.ObjectID(id), Pos: at, Vel: vpindex.V(rng.Float64()*20-10, rng.Float64()*20-10), T: now}
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand, batched bool) {
				defer wg.Done()
				batch := make([]vpindex.Object, 0, 16)
				for id := 1; id <= ids; id++ {
					o := object(id, rng)
					if !batched {
						if err := store.Report(o); err != nil {
							t.Error(err)
						}
						continue
					}
					if batch = append(batch, o); len(batch) == cap(batch) {
						if err := store.ReportBatch(batch); err != nil {
							t.Error(err)
						}
						batch = batch[:0]
					}
				}
			}(rand.New(rand.NewSource(int64(round*writers+w))), w%2 == 1)
		}
		wg.Wait()
		members, err := store.SubscriptionResults(sid)
		if err != nil {
			t.Fatal(err)
		}
		in := make(map[vpindex.ObjectID]bool, len(members))
		for _, id := range members {
			in[id] = true
		}
		for id := vpindex.ObjectID(1); id <= ids; id++ {
			o, ok := store.Get(id)
			if !ok {
				t.Fatalf("round %d: object %d missing", round, id)
			}
			if want := model.Matches(o, sub.QueryAt(now)); in[id] != want {
				t.Fatalf("round %d: object %d member %v, but its record %+v matches: %v", round, id, in[id], o, want)
			}
		}
	}
}
