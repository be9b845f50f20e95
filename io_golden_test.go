package vpindex_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	vpindex "repro"
	"repro/internal/workload"
)

// TestStoreIOGolden pins the Store's page accesses against testdata/io.golden.
// Four seeded single-threaded histories, each shaped like one benchmark
// workload at a twenty-fifth of its population, run verb by verb on a Store
// whose shards, buffer pages and query fan-out are pinned; for every verb the
// golden holds the calls made and the pool misses, write-backs and hits they
// cost in total, and for every history a hash of all answers (ids in answer
// order, kNN distances bit for bit, subscription events), the event count and
// each partition's τ. A change that claims to leave the read or write path's
// page accesses alone — a faster predicate, a different plan representation —
// must leave this file byte-identical; rerun with -update only when a change
// in those numbers is intended, and review `git diff testdata/io.golden`.
//
// Every pool belongs to one partition and a query or refresh probes the
// partitions one at a time (WithSearchParallelism(1)), so the numbers repeat
// under any -cpu; a batch's partition-parallel apply keeps each partition's
// operations in batch order. Page ids come from the one page store the pools
// share, so a parallel batch numbers them in whatever order its workers
// allocate; a pool small enough to evict is kept under 32 frames, one lock
// stripe, where a page's id does not decide which LRU it competes in.
func TestStoreIOGolden(t *testing.T) {
	var out strings.Builder
	for _, h := range []struct {
		name string
		run  func(*ioHistory)
	}{
		{"fleet-durable", fleetDurableHistory},
		{"dispatch-read", dispatchReadHistory},
		{"geofence-stream", geofenceStreamHistory},
		{"uniform-tpr", uniformTPRHistory},
	} {
		r := &ioHistory{t: t, name: h.name, answers: fnv.New64a()}
		h.run(r)
		r.write(&out)
	}
	got := out.String()
	path := filepath.Join("testdata", "io.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Store page accesses drifted from %s (rerun with -update only if the change is intended):\n%s",
			path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines of want missing from got ("- ") and of got missing
// from want ("+ ").
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range wl {
		if !slices.Contains(gl, l) {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range gl {
		if !slices.Contains(wl, l) {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}

// ioHistory drives one Store and records what each verb cost.
type ioHistory struct {
	t       *testing.T
	name    string
	s       *vpindex.Store
	events  <-chan vpindex.MonitorEvent
	verbs   []string
	costs   map[string]*ioCost
	answers hash.Hash64
	nEvents int
}

type ioCost struct {
	calls int
	vpindex.IOStats
}

// open opens the history's Store with the pinned knobs on top of opts and the
// event stream drained after every call.
func (r *ioHistory) open(opts ...vpindex.Option) {
	r.t.Helper()
	pinned := []vpindex.Option{
		vpindex.WithSearchParallelism(1),
		vpindex.WithSeed(1),
		vpindex.WithEventBuffer(1<<16, vpindex.BlockOnFull),
	}
	s, err := vpindex.Open(append(pinned, opts...)...)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { s.Close() })
	r.s, r.events = s, s.Events()
	r.costs = make(map[string]*ioCost)
}

// do runs one call of verb and charges it the pool counters it moved.
func (r *ioHistory) do(verb string, call func() error) {
	r.t.Helper()
	before := r.s.Stats().IOStats
	if err := call(); err != nil {
		r.t.Fatalf("%s: %s: %v", r.name, verb, err)
	}
	d := r.s.Stats().IOStats.Sub(before)
	c := r.costs[verb]
	if c == nil {
		c = &ioCost{}
		r.costs[verb] = c
		r.verbs = append(r.verbs, verb)
	}
	c.calls++
	c.Reads += d.Reads
	c.Writes += d.Writes
	c.Hits += d.Hits
	for {
		select {
		case ev := <-r.events:
			r.nEvents++
			r.hash(uint64(ev.Sub), uint64(ev.ID), uint64(ev.Kind), math.Float64bits(ev.T))
			continue
		default:
		}
		return
	}
}

func (r *ioHistory) hash(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		r.answers.Write(b[:])
	}
}

func (r *ioHistory) search(verb string, q vpindex.RangeQuery) {
	r.do(verb, func() error {
		ids, err := r.s.Search(q)
		r.hash(uint64(len(ids)))
		for _, id := range ids {
			r.hash(uint64(id))
		}
		return err
	})
}

func (r *ioHistory) knn(q vpindex.KNNQuery) {
	r.do("knn", func() error {
		ns, err := r.s.SearchKNN(q)
		r.hash(uint64(len(ns)))
		for _, n := range ns {
			r.hash(uint64(n.ID), math.Float64bits(n.Dist))
		}
		return err
	})
}

func (r *ioHistory) write(out *strings.Builder) {
	for _, v := range r.verbs {
		c := r.costs[v]
		fmt.Fprintf(out, "%s %-10s calls %5d misses %7d writes %7d hits %8d\n", r.name, v, c.calls, c.Reads, c.Writes, c.Hits)
	}
	fmt.Fprintf(out, "%s answers %016x events %d\n", r.name, r.answers.Sum64(), r.nEvents)
	for i, p := range r.s.Partitions() {
		fmt.Fprintf(out, "%s partition %d tau %g objects %d\n", r.name, i, p.Tau, p.Size)
	}
}

// ioGoldenObjects is each history's population: a twenty-fifth of the
// benchmark's 100,000.
const ioGoldenObjects = 4000

// roadHistory returns the seeded generator of dataset ds: its population,
// velocity sample and update stream.
func roadHistory(t *testing.T, ds workload.Dataset, seed int64) *workload.Generator {
	t.Helper()
	p := workload.DefaultParams(ds, ioGoldenObjects)
	p.Seed = seed
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// nextUpdates pulls n records of the update stream and the time of the last.
func nextUpdates(t *testing.T, g *workload.Generator, n int) ([]vpindex.Object, float64) {
	t.Helper()
	objs := make([]vpindex.Object, 0, n)
	now := 0.0
	for len(objs) < n {
		ev, ok := g.NextUpdate()
		if !ok {
			t.Fatal("update stream ran dry")
		}
		objs = append(objs, ev.New)
		now = ev.T
	}
	return objs, now
}

// ioQuery draws one range query of the given kind issued at now, centred in
// the domain: a 500 m circle at now+60 for a slice, a 1,000 m square over
// [now+60, now+90] otherwise, translating at up to 50 m/ts when moving.
func ioQuery(rng *rand.Rand, kind vpindex.QueryKind, now float64) vpindex.RangeQuery {
	c := vpindex.V(rng.Float64()*100000, rng.Float64()*100000)
	switch kind {
	case vpindex.TimeSlice:
		return vpindex.SliceQuery(vpindex.Circle{C: c, R: 500}, now, now+60)
	case vpindex.TimeInterval:
		return vpindex.IntervalQuery(vpindex.R(c.X-500, c.Y-500, c.X+500, c.Y+500), now, now+60, now+90)
	default:
		v := vpindex.V(rng.Float64()*100-50, rng.Float64()*100-50)
		return vpindex.MovingQuery(vpindex.R(c.X-500, c.Y-500, c.X+500, c.Y+500), v, now, now+60, now+90)
	}
}

func ioKNN(rng *rand.Rand, now float64) vpindex.KNNQuery {
	return vpindex.KNNQuery{Center: vpindex.V(rng.Float64()*100000, rng.Float64()*100000), K: 10, Now: now, T: now + 60}
}

// ioSubscriptions registers n standing subscriptions at now: 1,000 m squares
// looking 30 ts ahead, every other one a moving range when mixed.
func (r *ioHistory) ioSubscriptions(rng *rand.Rand, n int, mixed bool, now float64) {
	for i := 0; i < n; i++ {
		c := vpindex.V(rng.Float64()*100000, rng.Float64()*100000)
		q := vpindex.RectSliceQuery(vpindex.R(c.X-500, c.Y-500, c.X+500, c.Y+500), now, now)
		sub := vpindex.Subscription{Query: q, Horizon: 30}
		if mixed && i%2 == 1 {
			sub.Query = vpindex.MovingQuery(q.Rect, vpindex.V(rng.Float64()*40-20, rng.Float64()*40-20), now, now, now)
			sub.Window = 10
		}
		r.do("subscribe", func() error {
			id, seed, err := r.s.Subscribe(sub, now)
			r.hash(uint64(id), uint64(len(seed)))
			return err
		})
	}
}

// fleetDurableHistory: a durable Bx Store with the cache a tenth of the index,
// 200 subscriptions, ReportBatch(64) of the update stream with slice searches
// and kNN between batches, and a checkpoint every ten batches.
func fleetDurableHistory(r *ioHistory) {
	g := roadHistory(r.t, workload.Chicago, 11)
	r.open(vpindex.WithKind(vpindex.Bx), vpindex.WithShards(2), vpindex.WithBufferPages(3),
		vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(g.VelocitySample(2000)),
		vpindex.WithDataDir(r.t.TempDir()), vpindex.WithSyncPolicy(vpindex.SyncNone()))
	rng := rand.New(rand.NewSource(12))
	r.do("load", func() error { return r.s.ReportBatch(g.Initial()) })
	r.ioSubscriptions(rng, 200, false, 0)
	for b := 0; b < 60; b++ {
		objs, now := nextUpdates(r.t, g, 64)
		r.do("batch", func() error { return r.s.ReportBatch(objs) })
		for i := 0; i < 3; i++ {
			r.search("slice", ioQuery(rng, vpindex.TimeSlice, now))
		}
		r.knn(ioKNN(rng, now))
		if b%10 == 9 {
			r.do("checkpoint", r.s.Checkpoint)
		}
	}
}

// dispatchReadHistory: every page cached, a read-heavy mix of the three range
// query kinds and kNN with a thin stream of single reports.
func dispatchReadHistory(r *ioHistory) {
	g := roadHistory(r.t, workload.Chicago, 21)
	r.open(vpindex.WithKind(vpindex.Bx), vpindex.WithShards(2), vpindex.WithBufferPages(1024),
		vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(g.VelocitySample(2000)))
	rng := rand.New(rand.NewSource(22))
	r.do("load", func() error { return r.s.ReportBatch(g.Initial()) })
	objs, now := nextUpdates(r.t, g, 200)
	for i := 0; i < 2000; i++ {
		switch k := i % 10; {
		case k < 4:
			r.search("slice", ioQuery(rng, vpindex.TimeSlice, now))
		case k < 6:
			r.search("interval", ioQuery(rng, vpindex.TimeInterval, now))
		case k < 7:
			r.search("moving", ioQuery(rng, vpindex.MovingRange, now))
		case k < 9:
			r.knn(ioKNN(rng, now))
		default:
			o := objs[i/10]
			r.do("report", func() error { return r.s.Report(o) })
		}
	}
}

// geofenceStreamHistory: 2,000 subscriptions, half static rectangles and half
// moving ranges, against single reports, with a few searches and kNN.
func geofenceStreamHistory(r *ioHistory) {
	g := roadHistory(r.t, workload.Chicago, 31)
	r.open(vpindex.WithKind(vpindex.Bx), vpindex.WithShards(2), vpindex.WithBufferPages(15),
		vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(g.VelocitySample(2000)))
	rng := rand.New(rand.NewSource(32))
	r.do("load", func() error { return r.s.ReportBatch(g.Initial()) })
	r.ioSubscriptions(rng, 2000, true, 0)
	objs, now := nextUpdates(r.t, g, 3000)
	for i, o := range objs {
		r.do("report", func() error { return r.s.Report(o) })
		switch i % 100 {
		case 0:
			r.search("slice", ioQuery(rng, vpindex.TimeSlice, o.T))
		case 50:
			r.knn(ioKNN(rng, o.T))
		}
	}
	r.do("refresh", func() error {
		evs, err := r.s.RefreshSubscriptions(now)
		r.hash(uint64(len(evs)))
		return err
	})
}

// uniformTPRHistory: a uniform population on the TPR*-tree with a small
// cache, reports, slice searches, a little kNN, and vehicles replaced under
// fresh ids (Remove, then Insert).
func uniformTPRHistory(r *ioHistory) {
	g := roadHistory(r.t, workload.Uniform, 41)
	r.open(vpindex.WithKind(vpindex.TPRStar), vpindex.WithShards(2), vpindex.WithBufferPages(3),
		vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(g.VelocitySample(2000)))
	rng := rand.New(rand.NewSource(42))
	r.do("load", func() error { return r.s.ReportBatch(g.Initial()) })
	objs, _ := nextUpdates(r.t, g, 1500)
	fresh := vpindex.ObjectID(ioGoldenObjects)
	for i, o := range objs {
		switch {
		case i%20 == 19:
			fresh++
			o.ID = fresh
			r.do("remove", func() error { return r.s.Remove(objs[i-1].ID) })
			r.do("insert", func() error { return r.s.Insert(o) })
		default:
			r.do("report", func() error { return r.s.Report(o) })
		}
		if i%2 == 0 {
			r.search("slice", ioQuery(rng, vpindex.TimeSlice, o.T))
		}
		if i%50 == 0 {
			r.knn(ioKNN(rng, o.T))
		}
	}
}
