// Store concurrency benchmarks: one table stripe vs GOMAXPROCS stripes on the
// production facade. Run with
//
//	go test -bench=Store -benchmem -run='^$' -cpu 1,4,8
//
// The index structures are the same k+1 on both sides of the axis; shards=1
// serializes the id-keyed table work, shards=N is the GOMAXPROCS default.
// Every page lives in the in-memory page store, so the time is CPU and lock
// work, as in benchmark/run.sh; page I/O shows as buffer-pool misses, the
// paper's metric. These are for measuring while you work; the record is
// benchmark/run.sh.
package vpindex_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	vpindex "repro"
)

// benchStoreObjects is the live population the Store benchmarks run over.
const benchStoreObjects = 20000

// benchTotalPages is the aggregate page-cache budget, held constant across
// the shard axis so the comparison isolates lock overlap instead of also
// handing the striped configuration a bigger cache: the Store has 3 pools
// (k = 2) of WithBufferPages × shards frames each.
const benchTotalPages = 384

// randomObjects draws n objects moving fast along one of two perpendicular
// axes with a little cross-axis noise: a road-grid-like velocity skew.
func randomObjects(n int, seed int64) []vpindex.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]vpindex.Object, n)
	for i := range objs {
		speed := 20 + rng.Float64()*80
		if rng.Intn(2) == 0 {
			speed = -speed
		}
		vel := vpindex.V(speed, rng.NormFloat64()*2)
		if i%2 == 0 {
			vel = vpindex.V(rng.NormFloat64()*2, speed)
		}
		objs[i] = vpindex.Object{
			ID:  vpindex.ObjectID(i + 1),
			Pos: vpindex.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: vel,
			T:   0,
		}
	}
	return objs
}

// newBenchStore opens a velocity-partitioned (k=2 via upfront sample) Bx
// Store with the given shard count and preloads the population. Extra
// options apply on top.
func newBenchStore(b *testing.B, shards int, objs []vpindex.Object, extra ...vpindex.Option) *vpindex.Store {
	b.Helper()
	sample := make([]vpindex.Vec2, len(objs))
	for i, o := range objs {
		sample[i] = o.Vel
	}
	const pools = 3
	opts := []vpindex.Option{
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithShards(shards),
		vpindex.WithBufferPages(max(benchTotalPages/(pools*shards), 1)),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(sample),
		vpindex.WithSeed(1),
	}
	store, err := vpindex.Open(append(opts, extra...)...)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.ReportBatch(objs); err != nil {
		b.Fatal(err)
	}
	return store
}

// shardCounts returns the benchmark's shard axis: the single-lock baseline
// and the GOMAXPROCS default (when they differ).
func shardCounts() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkStoreMixed is the headline mixed read/write workload: 7 in 8
// operations are ID-keyed reports (upserts that may migrate partitions),
// 1 in 8 is a predictive range query.
func BenchmarkStoreMixed(b *testing.B) {
	objs := randomObjects(benchStoreObjects, 7)
	for _, shards := range shardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := newBenchStore(b, shards, objs)
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seq.Add(1)))
				for pb.Next() {
					if rng.Intn(8) == 0 {
						c := vpindex.V(rng.Float64()*100000, rng.Float64()*100000)
						if _, err := store.Search(vpindex.SliceQuery(vpindex.Circle{C: c, R: 500}, 0, 60)); err != nil {
							b.Fatal(err)
						}
						continue
					}
					o := objs[rng.Intn(len(objs))]
					o.Pos = vpindex.V(rng.Float64()*100000, rng.Float64()*100000)
					if err := store.Report(o); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreReport is the pure write path: every operation is an
// ID-keyed upsert of an existing object.
func BenchmarkStoreReport(b *testing.B) {
	objs := randomObjects(benchStoreObjects, 8)
	for _, shards := range shardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := newBenchStore(b, shards, objs)
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seq.Add(1)))
				for pb.Next() {
					o := objs[rng.Intn(len(objs))]
					o.Pos = vpindex.V(rng.Float64()*100000, rng.Float64()*100000)
					if err := store.Report(o); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreIngestAllocs pins allocations per Report on the write path.
// The measurement is pure CPU + allocator work: the one write routine must not allocate per-record closures or encode buffers
// (pooled WAL encode buffers). The durable axis uses SyncNone so fsync stalls
// don't drown the numbers.
func BenchmarkStoreIngestAllocs(b *testing.B) {
	objs := randomObjects(benchStoreObjects, 10)
	for _, durable := range []bool{false, true} {
		b.Run(fmt.Sprintf("durable=%v", durable), func(b *testing.B) {
			var extra []vpindex.Option
			if durable {
				extra = append(extra,
					vpindex.WithDataDir(b.TempDir()),
					vpindex.WithSyncPolicy(vpindex.SyncNone()),
				)
			}
			store := newBenchStore(b, runtime.GOMAXPROCS(0), objs, extra...)
			defer store.Close()
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seq.Add(1)))
				for pb.Next() {
					o := objs[rng.Intn(len(objs))]
					o.Pos = vpindex.V(rng.Float64()*100000, rng.Float64()*100000)
					if err := store.Report(o); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreSearch is the pure read path: concurrent predictive range
// queries against a static population (readers share the manager's read
// locks; the striped per-partition pools keep page-cache hits from
// serializing).
func BenchmarkStoreSearch(b *testing.B) {
	objs := randomObjects(benchStoreObjects, 9)
	for _, shards := range shardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := newBenchStore(b, shards, objs)
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seq.Add(1)))
				for pb.Next() {
					c := vpindex.V(rng.Float64()*100000, rng.Float64()*100000)
					if _, err := store.Search(vpindex.SliceQuery(vpindex.Circle{C: c, R: 500}, 0, 60)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreSearchKNN is one SearchKNN(k=10) per iteration from a single
// caller, with every index page cached and with a cache a tenth of the index
// (20,000 objects are about 480 pages over three pools); the time is the
// engine's own. pages/op is pool accesses (hits + misses) per
// query: the count the partition bound shrinks.
func BenchmarkStoreSearchKNN(b *testing.B) {
	objs := randomObjects(benchStoreObjects, 11)
	for _, c := range []struct {
		name  string
		pages int
	}{{"cached", 1024}, {"cache=10%", 16}} {
		b.Run(c.name, func(b *testing.B) {
			store := newBenchStore(b, 1, objs, vpindex.WithBufferPages(c.pages))
			rng := rand.New(rand.NewSource(1))
			before := store.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := vpindex.V(rng.Float64()*100000, rng.Float64()*100000)
				if _, err := store.SearchKNN(vpindex.KNNQuery{Center: c, K: 10, Now: 0, T: 60}); err != nil {
					b.Fatal(err)
				}
			}
			io := store.Stats().IOStats.Sub(before.IOStats)
			b.ReportMetric(float64(io.Reads+io.Hits)/float64(b.N), "pages/op")
		})
	}
}
