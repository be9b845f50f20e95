package vpindex_test

import (
	"fmt"
	"math/rand"
	"testing"

	vpindex "repro"
)

// TestStoreShardCountInvariance pins what WithShards is: a stripe count for
// the id-keyed tables, never a count of index structures. The same seeded
// load and the same sequential query list on one stripe and on eight must
// touch exactly as many pages per report and per search (hits + reads; how
// they split depends on the pool size, which scales with the stripe count),
// return identical answers in identical order, and leave k+1 live pools and
// partition sizes that sum to Len — so "more shards, more trees to probe"
// cannot come back unnoticed.
func TestStoreShardCountInvariance(t *testing.T) {
	type run struct {
		loadIO, reportIO, searchIO int64
		answers                    string
	}
	for _, kind := range []vpindex.Kind{vpindex.Bx, vpindex.TPRStar} {
		var runs []run
		for _, shards := range []int{1, 8} {
			store, err := vpindex.Open(vpindex.WithKind(kind), vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
				vpindex.WithShards(shards), vpindex.WithBufferPages(10), vpindex.WithSearchParallelism(1),
				vpindex.WithVelocityPartitioning(2), vpindex.WithVelocitySample(testSample(600, 5)), vpindex.WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			accesses := func() int64 { st := store.Stats(); return st.Hits + st.Reads }
			rng := rand.New(rand.NewSource(21))
			objs := make([]vpindex.Object, 1500)
			for i := range objs {
				objs[i] = testObject(i+1, rng)
			}
			var r run
			if err := store.ReportBatch(objs); err != nil {
				t.Fatal(err)
			}
			r.loadIO = accesses()
			for i := 0; i < 400; i++ {
				o := testObject(1+rng.Intn(len(objs)), rng)
				o.T = float64(i) / 40
				if err := store.Report(o); err != nil {
					t.Fatal(err)
				}
			}
			r.reportIO = accesses() - r.loadIO
			for i := 0; i < 60; i++ {
				c := vpindex.V(rng.Float64()*20000, rng.Float64()*20000)
				ids, err := store.Search(vpindex.SliceQuery(vpindex.Circle{C: c, R: 2500}, 10, 20))
				if err != nil {
					t.Fatal(err)
				}
				ns, err := store.SearchKNN(vpindex.KNNQuery{Center: c, K: 7, Now: 10, T: 20})
				if err != nil {
					t.Fatal(err)
				}
				r.answers += fmt.Sprintln(ids, ns)
			}
			r.searchIO = accesses() - r.loadIO - r.reportIO
			runs = append(runs, r)

			total := 0
			for _, p := range store.Partitions() {
				total += p.Size
			}
			if pools := store.Pools(); len(pools) != 3 || pools[0].Capacity() != 10*shards || total != store.Len() || total != len(objs) {
				t.Fatalf("%v shards=%d: %d pools of %d frames, partition sizes sum to %d, Len %d; want 3 pools of %d, %d, %d",
					kind, shards, len(pools), pools[0].Capacity(), total, store.Len(), 10*shards, len(objs), len(objs))
			}
		}
		if runs[0] != runs[1] {
			t.Fatalf("%v: WithShards(1) and WithShards(8) differ: page accesses load/report/search %d/%d/%d vs %d/%d/%d, answers equal %v",
				kind, runs[0].loadIO, runs[0].reportIO, runs[0].searchIO, runs[1].loadIO, runs[1].reportIO, runs[1].searchIO,
				runs[0].answers == runs[1].answers)
		}
	}
}
