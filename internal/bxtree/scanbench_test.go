package bxtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/workload"
)

// benchInput is the canonical benchmark's population, drawn once: 100,000
// Chicago road-network objects at up to 100 m/ts at time 0, then their update
// stream to time 130, so that every object has reported at least once since
// time 10 and the three time buckets of a steady state are live.
var benchInput struct {
	initial []model.Object
	updates []workload.UpdateEvent
}

// benchHistory builds a Bx-tree over a pool of the given size from
// benchInput and returns it with the time of the last update.
func benchHistory(tb testing.TB, pages int) (*Tree, float64) {
	tb.Helper()
	if benchInput.initial == nil {
		p := workload.DefaultParams(workload.Chicago, 100000)
		p.Seed = 1
		g, err := workload.NewGenerator(p)
		if err != nil {
			tb.Fatal(err)
		}
		for len(benchInput.updates) == 0 || benchInput.updates[len(benchInput.updates)-1].T < 130 {
			ev, ok := g.NextUpdate()
			if !ok {
				tb.Fatal("update stream ran dry")
			}
			benchInput.updates = append(benchInput.updates, ev)
		}
		benchInput.initial = g.Initial()
	}
	tr, err := NewTree(storage.NewBufferPool(storage.NewMemStore(), pages), Config{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, o := range benchInput.initial {
		if err := tr.Insert(o); err != nil {
			tb.Fatal(err)
		}
	}
	for _, ev := range benchInput.updates {
		if err := tr.Update(ev.Old, ev.New); err != nil {
			tb.Fatal(err)
		}
	}
	return tr, benchInput.updates[len(benchInput.updates)-1].T
}

// benchTrees holds the detached trees of BenchmarkSearch and
// BenchmarkSearchPlan and the time of their last update, one per pool size,
// so each is built once (~2 s, and ~3.5 s to draw the input the first
// time) whatever b.N and however many benchmarks run.
// Neither benchmark writes.
var benchTrees = map[int]struct {
	tr  *Tree
	now float64
}{}

func benchTree(b *testing.B, pages int) (*Tree, float64) {
	bt, ok := benchTrees[pages]
	if !ok {
		bt.tr, bt.now = benchHistory(b, pages)
		benchTrees[pages] = bt
	}
	return bt.tr, bt.now
}

// benchPools are the pool sizes of the kernel query benchmarks: every page
// of the ~2,400-page tree cached, and a tenth of it.
var benchPools = []struct {
	name  string
	pages int
}{{"cached", 4096}, {"cache=10%", 240}}

// benchQuery is the i-th query of the kernel benchmarks, 60 ts ahead of now
// at a uniform centre, cycling through the canonical benchmark's shapes: a
// time-slice circle of radius 500 m, a 1,000 m square over a 30 ts interval,
// and the same square moving at up to 50 m/ts per axis.
func benchQuery(rng *rand.Rand, i int, now float64) model.RangeQuery {
	c := geom.V(rng.Float64()*100000, rng.Float64()*100000)
	q := model.RangeQuery{Kind: model.QueryKind(i % 3), Rect: geom.RectFromCenter(c, 500, 500), Now: now, T0: now + 60, T1: now + 90}
	switch q.Kind {
	case model.TimeSlice:
		q.Circle = geom.Circle{C: c, R: 500}
	case model.MovingRange:
		q.Vel = geom.V(rng.Float64()*100-50, rng.Float64()*100-50)
	}
	return q
}

func accesses(p *storage.BufferPool) int64 {
	s := p.Stats()
	return s.Hits + s.Misses
}

// BenchmarkSearch measures the range-search kernel without the Store: one
// benchQuery per iteration into a recycled result slice, with every page
// cached and with the pool a tenth of the tree. pages/op is pool accesses,
// hits and misses.
func BenchmarkSearch(b *testing.B) {
	for _, bc := range benchPools {
		b.Run(bc.name, func(b *testing.B) {
			tr, now := benchTree(b, bc.pages)
			rng := rand.New(rand.NewSource(13))
			var dst []model.ObjectID
			b.ReportAllocs()
			b.ResetTimer()
			before := accesses(tr.pool)
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = tr.SearchAppend(dst[:0], benchQuery(rng, i, now)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(accesses(tr.pool)-before)/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkSearchPlan measures the plan alone — per bucket enlargedWindow,
// AppendWindow and MergeIntervals — over BenchmarkSearch's queries on its
// cached tree. intervals/op is the scan ranges a query hands the B+-tree.
func BenchmarkSearchPlan(b *testing.B) {
	tr, now := benchTree(b, benchPools[0].pages)
	rng := rand.New(rand.NewSource(13))
	sc := new(queryScratch)
	ranges := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.plan(benchQuery(rng, i, now), sc)
		ranges += len(sc.ranges)
	}
	b.ReportMetric(float64(ranges)/float64(b.N), "intervals/op")
}
