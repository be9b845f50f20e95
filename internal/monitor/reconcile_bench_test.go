package monitor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// BenchmarkReconcile is one filtered report per iteration, as the Store's
// write path runs it: AppendCandidates, then Reconcile of the object against
// the candidates and its own memberships. 10,000 objects in a 10 km square
// report under 500 static and moving fences of 400–800 m; each report turns
// its object onto a new heading, so its predicted position jumps and
// memberships enter and leave all the time.
//
// Before the timed loop a seeded history of 20 reports per object runs
// through a fresh ResultSet, and B/membership is the live heap that table
// holds afterwards (after a collection, against one taken before it was
// made) divided by the memberships it then holds.
func BenchmarkReconcile(b *testing.B) {
	const objects, fences, history = 10000, 500, 20
	rng := rand.New(rand.NewSource(1))
	f := NewFilter(geom.R(0, 0, 10000, 10000), 32)
	subs := make(map[SubscriptionID]Subscription, fences)
	for i := SubscriptionID(1); i <= fences; i++ {
		c := geom.V(rng.Float64()*10000, rng.Float64()*10000)
		s := Subscription{Horizon: rng.Float64() * 10}
		s.Query.Rect = geom.RectFromCenter(c, 200+rng.Float64()*200, 200+rng.Float64()*200)
		if i%2 == 0 {
			s.Query.Kind, s.Query.Vel, s.Window = model.MovingRange, geom.V(rng.Float64()*20-10, rng.Float64()*20-10), 5
		}
		subs[i] = s
		f.Add(i, s)
	}
	objs := make([]model.Object, objects)
	for i := range objs {
		objs[i] = model.Object{ID: model.ObjectID(i + 1), Pos: geom.V(rng.Float64()*10000, rng.Float64()*10000)}
	}
	// A pre-drawn cycle of reports: which object, and its new heading.
	type move struct {
		i   int
		vel geom.Vec2
	}
	moves := make([]move, 1<<16)
	for k := range moves {
		ang, speed := rng.Float64()*2*math.Pi, 5+rng.Float64()*35
		moves[k] = move{rng.Intn(objects), geom.V(speed*math.Cos(ang), speed*math.Sin(ang))}
	}
	var cands []SubscriptionID
	now := 0.0
	report := func(r *ResultSet, k int) {
		m := moves[k%len(moves)]
		now += 1.0 / objects
		o := &objs[m.i]
		o.Pos, o.Vel, o.T = o.PosAt(now), m.vel, now
		var ok bool
		cands, ok = f.AppendCandidates(cands[:0], *o, now)
		r.Reconcile(o.ID, *o, true, now, cands, !ok, subs)
		if !ok {
			f.Grow(o.Vel, subs)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewResultSet()
	k := 0
	for ; k < history*objects; k++ {
		report(r, k)
	}
	memberships := 0
	for sub := range subs {
		memberships += len(r.Members(sub))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if memberships == 0 {
		b.Fatal("the history left no membership")
	}
	perMembership := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(memberships)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report(r, k+i)
	}
	b.StopTimer()
	b.ReportMetric(perMembership, "B/membership")
	b.ReportMetric(float64(memberships), "memberships")
	runtime.KeepAlive(r)
}
