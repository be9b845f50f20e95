package vpindex_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	vpindex "repro"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

func TestOpenDefaults(t *testing.T) {
	for _, kind := range []vpindex.Kind{vpindex.TPRStar, vpindex.Bx} {
		idx, err := vpindex.Open(vpindex.WithKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		if idx.Len() != 0 {
			t.Fatal("new store not empty")
		}
		o := vpindex.Object{ID: 1, Pos: vpindex.V(100, 100), Vel: vpindex.V(5, 5), T: 0}
		if err := idx.Insert(o); err != nil {
			t.Fatal(err)
		}
		ids, err := idx.Search(vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(150, 150), R: 100}, 0, 10))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || ids[0] != 1 {
			t.Fatalf("%v: ids = %v", kind, ids)
		}
		if err := idx.Remove(o.ID); err != nil {
			t.Fatal(err)
		}
		if idx.Len() != 0 {
			t.Fatal("delete did not shrink store")
		}
	}
}

func TestKindString(t *testing.T) {
	if vpindex.TPRStar.String() != "tpr*" || vpindex.Bx.String() != "bx" {
		t.Fatal("kind names")
	}
}

func TestQueryBuilders(t *testing.T) {
	c := vpindex.Circle{C: vpindex.V(10, 20), R: 5}
	q := vpindex.SliceQuery(c, 1, 2)
	if q.Kind != vpindex.TimeSlice || !q.IsCircle() || q.Now != 1 || q.T0 != 2 {
		t.Fatalf("slice: %+v", q)
	}
	r := vpindex.R(0, 0, 10, 10)
	q = vpindex.RectSliceQuery(r, 0, 5)
	if q.IsCircle() || q.Rect != r {
		t.Fatalf("rect slice: %+v", q)
	}
	q = vpindex.IntervalQuery(r, 0, 5, 9)
	if q.Kind != vpindex.TimeInterval || q.T1 != 9 {
		t.Fatalf("interval: %+v", q)
	}
	q = vpindex.MovingQuery(r, vpindex.V(1, 2), 0, 3, 8)
	if q.Kind != vpindex.MovingRange || q.Vel != vpindex.V(1, 2) {
		t.Fatalf("moving: %+v", q)
	}
	for _, q := range []vpindex.RangeQuery{
		vpindex.SliceQuery(c, 1, 2),
		vpindex.RectSliceQuery(r, 0, 5),
		vpindex.IntervalQuery(r, 0, 5, 9),
		vpindex.MovingQuery(r, vpindex.V(1, 2), 0, 3, 8),
	} {
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVPAnalysisExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sample := make([]vpindex.Vec2, 1000)
	for i := range sample {
		s := 20 + rng.Float64()*50
		if i%2 == 0 {
			sample[i] = vpindex.V(s, rng.NormFloat64())
		} else {
			sample[i] = vpindex.V(rng.NormFloat64(), -s)
		}
	}
	idx, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(sample),
	)
	if err != nil {
		t.Fatal(err)
	}
	an, ok := idx.Analysis()
	if !ok || velocityFrames(an) != 2 || an.SampleSize != 1000 {
		t.Fatalf("analysis: %+v (ok=%v)", an, ok)
	}
	if n := len(idx.Partitions()); n != 3 {
		t.Fatalf("partitions: %d", n)
	}
}

func TestStatsProgress(t *testing.T) {
	idx, err := vpindex.Open(vpindex.WithKind(vpindex.Bx), vpindex.WithBufferPages(4), vpindex.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		o := vpindex.Object{
			ID:  vpindex.ObjectID(i + 1),
			Pos: vpindex.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: vpindex.V(rng.Float64()*100-50, rng.Float64()*100-50),
			T:   0,
		}
		if err := idx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	st := idx.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("tiny buffer should force I/O: %+v", st)
	}
}

// storeSetup is one Store configuration of the oracle grids: base kind x
// partitioning state x shard count. The objective rows are partitioned from
// an upfront sample (ObjectiveNone runs the same machinery over a single
// unpartitioned index, which is the paper's flat baseline); the plain row
// passes no VP option at all, and the auto row bootstraps online, crossing
// its threshold mid-history — the two states that open on the unpartitioned
// manager.
type storeSetup struct {
	name   string
	kind   vpindex.Kind
	shards int
	// vp builds the setup's partitioning options from the velocity sample.
	vp func(sample []vpindex.Vec2) []vpindex.Option
	// auto marks the online-bootstrap row: not partitioned at Open, and
	// partitioned once gridAutoThreshold records have been written.
	auto bool
}

// gridAutoThreshold is the auto row's bootstrap threshold: above the initial
// load of every grid that drives an update history (so the swap lands among
// the updates), below the total number of records each grid writes.
const gridAutoThreshold = 1000

func storeSetups() []storeSetup {
	var out []storeSetup
	for _, kind := range []vpindex.Kind{vpindex.Bx, vpindex.TPRStar} {
		for _, obj := range []vpindex.PartitionObjective{vpindex.ObjectiveNone, vpindex.ObjectiveDVA} {
			for _, shards := range []int{1, 4} {
				out = append(out, storeSetup{
					name: fmt.Sprintf("%s-%s-shards%d", kind, obj, shards),
					kind: kind, shards: shards,
					vp: func(sample []vpindex.Vec2) []vpindex.Option {
						return []vpindex.Option{
							vpindex.WithVelocityPartitioning(2),
							vpindex.WithPartitioner(obj),
							vpindex.WithVelocitySample(sample),
						}
					},
				})
			}
		}
		out = append(out, storeSetup{
			name: fmt.Sprintf("%s-plain-shards4", kind), kind: kind, shards: 4,
			vp: func([]vpindex.Vec2) []vpindex.Option { return nil },
		}, storeSetup{
			name: fmt.Sprintf("%s-auto-shards4", kind), kind: kind, shards: 4, auto: true,
			vp: func([]vpindex.Vec2) []vpindex.Option {
				return []vpindex.Option{
					vpindex.WithVelocityPartitioning(2),
					vpindex.WithAutoPartition(gridAutoThreshold),
				}
			},
		})
	}
	return out
}

func (su storeSetup) open(t *testing.T, sample []vpindex.Vec2, extra ...vpindex.Option) *vpindex.Store {
	t.Helper()
	opts := append([]vpindex.Option{vpindex.WithKind(su.kind), vpindex.WithShards(su.shards)}, su.vp(sample)...)
	s, err := vpindex.Open(append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkTableIndexAgree asserts that the id→record table and the index
// structure hold the same population: Len, a whole-domain Search (the domain
// padded by its own extent, so objects extrapolated past an edge count too)
// and the number of Get-able ids among those ever written must all equal
// want. A record that is in one but not the other — a failed write that was
// half applied — fails here even when no range query happens to cover it.
func checkTableIndexAgree(t *testing.T, s *vpindex.Store, domain vpindex.Rect, now float64, ids []vpindex.ObjectID, want int) {
	t.Helper()
	all, err := s.Search(vpindex.RectSliceQuery(domain.Expand(domain.Width()), now, now))
	if err != nil {
		t.Fatal(err)
	}
	gettable := 0
	for _, id := range ids {
		if _, ok := s.Get(id); ok {
			gettable++
		}
	}
	if s.Len() != want || len(all) != want || gettable != want {
		t.Fatalf("t=%g: table and index disagree: Len %d, whole-domain Search %d, Get-able %d, want %d",
			now, s.Len(), len(all), gettable, want)
	}
}

// TestEndToEndOracleAllDatasetsAllSetups is the repository's strongest
// integration test: for every dataset and every Store configuration,
// replay a full benchmark workload (load + updates interleaved with
// queries) and require bit-identical result sets against the brute-force
// oracle at every query.
func TestEndToEndOracleAllDatasetsAllSetups(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, ds := range workload.Datasets() {
		for _, su := range storeSetups() {
			t.Run(string(ds)+"/"+su.name, func(t *testing.T) {
				p := workload.DefaultParams(ds, 900)
				p.Domain = vpindex.R(0, 0, 12000, 12000)
				p.Duration = 30
				p.NumQueries = 15
				p.SampleSize = 900
				gen, err := workload.NewGenerator(p)
				if err != nil {
					t.Fatal(err)
				}
				idx := su.open(t, gen.VelocitySample(900),
					vpindex.WithDomain(p.Domain),
					vpindex.WithBufferPages(20),
					vpindex.WithSeed(5),
				)
				oracle := model.NewBruteForce()
				var ids []vpindex.ObjectID
				for _, o := range gen.Initial() {
					if err := idx.Insert(o); err != nil {
						t.Fatal(err)
					}
					_ = oracle.Insert(o)
					ids = append(ids, o.ID)
				}
				if su.auto && idx.Partitioned() {
					t.Fatal("auto setup bootstrapped during the initial load, not mid-history")
				}
				queries := gen.Queries(p.NumQueries)
				// Add the other two query kinds at matching issue times.
				queries = append(queries, gen.IntervalQueries(5, 15)...)
				queries = append(queries, gen.MovingQueries(5, 15)...)
				sort.Slice(queries, func(a, b int) bool { return queries[a].Now < queries[b].Now })
				qi := 0
				check := func(now float64) {
					for qi < len(queries) && queries[qi].Now <= now {
						q := queries[qi]
						qi++
						checkTableIndexAgree(t, idx, p.Domain, q.Now, ids, oracle.Len())
						got, err := idx.Search(q)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := oracle.Search(q)
						sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
						sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
						if len(got) != len(want) {
							t.Fatalf("query at t=%g (%v): %d vs %d results",
								q.Now, q.Kind, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("query at t=%g: result %d differs", q.Now, i)
							}
						}
					}
				}
				for {
					ev, ok := gen.NextUpdate()
					if !ok {
						break
					}
					check(ev.T)
					if err := idx.Report(ev.New); err != nil {
						t.Fatalf("update at t=%g: %v", ev.T, err)
					}
					if err := oracle.Update(ev.Old, ev.New); err != nil {
						t.Fatal(err)
					}
				}
				check(p.Duration + 1)
				checkTableIndexAgree(t, idx, p.Domain, p.Duration+1, ids, oracle.Len())
				if su.auto && !idx.Partitioned() {
					t.Fatal("auto setup never crossed its bootstrap threshold")
				}
			})
		}
	}
}

// velocityFrames counts an analysis's non-outlier frames.
func velocityFrames(an core.Analysis) int {
	n := 0
	for _, f := range an.Frames {
		if !f.IsOutlier {
			n++
		}
	}
	return n
}
