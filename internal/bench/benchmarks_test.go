package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// Benchmarks regenerating every figure of the VP paper's evaluation
// (Section 6) at a reduced, density-preserving scale, plus ablations of the
// design choices the paper calls out. Each reports the series the paper
// plots as custom metrics (queryIO/op = average buffer-pool misses per
// query). Paper-scale runs of the same experiments: cmd/vpbench -paper.

// benchScale keeps figure benchmarks to a few seconds each.
func benchScale() Scale { return ScaleFor(2500, 40, 25) }

// benchSeed is vpbench's default workload seed.
const benchSeed = 42

// runSetup runs one setup over a fresh workload.
func runSetup(b *testing.B, s Setup, ds workload.Dataset, sc Scale, mut func(*workload.Params)) Metrics {
	b.Helper()
	p := params(ds, sc, benchSeed)
	if mut != nil {
		mut(&p)
	}
	gen, err := workload.NewGenerator(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Run(s, gen, sc.Buffer)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkFig07SearchSpaceExpansion(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, tab, err := RunFig7(sc, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab.Format())
			b.ReportMetric(float64(len(points)), "scatter-points")
		}
	}
}

func BenchmarkFig17TauSweep(b *testing.B) {
	sc := ScaleFor(1500, 25, 20)
	for i := 0; i < b.N; i++ {
		tab, err := RunFig17(workload.Chicago, sc, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab.Format())
		}
	}
}

func BenchmarkFig18AnalyzerOverhead(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tab, err := RunFig18(sc, benchSeed, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab.Format())
		}
	}
}

func BenchmarkFig19VaryDataset(b *testing.B) {
	sc := benchScale()
	for _, ds := range workload.Datasets() {
		for _, s := range AllSetups() {
			b.Run(fmt.Sprintf("%s/%s", ds, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := runSetup(b, s, ds, sc, nil)
					b.ReportMetric(m.QueryIO, "queryIO/op")
					b.ReportMetric(m.UpdateIO, "updateIO/op")
				}
			})
		}
	}
}

func BenchmarkFig20VaryDataSize(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		sc := ScaleFor(n, 30, 20)
		for _, s := range AllSetups() {
			b.Run(fmt.Sprintf("n=%d/%s", n, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := runSetup(b, s, workload.Chicago, sc, nil)
					b.ReportMetric(m.QueryIO, "queryIO/op")
				}
			})
		}
	}
}

// benchSweep runs the four setups on Chicago at each sweep point.
func benchSweep(b *testing.B, label string, xs []float64, mut func(*workload.Params, float64)) {
	sc := benchScale()
	for _, x := range xs {
		for _, s := range AllSetups() {
			b.Run(fmt.Sprintf("%s=%.0f/%s", label, x, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := runSetup(b, s, workload.Chicago, sc,
						func(p *workload.Params) { mut(p, x) })
					b.ReportMetric(m.QueryIO, "queryIO/op")
				}
			})
		}
	}
}

func BenchmarkFig21VaryMaxSpeed(b *testing.B) {
	benchSweep(b, "v", []float64{20, 100, 200},
		func(p *workload.Params, x float64) { p.MaxSpeed = x })
}

func BenchmarkFig22VaryQueryRadius(b *testing.B) {
	benchSweep(b, "r", []float64{100, 500, 1000},
		func(p *workload.Params, x float64) { p.QueryRadius = x })
}

func BenchmarkFig23VaryPredictiveTime(b *testing.B) {
	benchSweep(b, "h", []float64{20, 60, 120},
		func(p *workload.Params, x float64) { p.PredictiveTime = x })
}

func BenchmarkFig24RectPredictiveTime(b *testing.B) {
	benchSweep(b, "h", []float64{20, 60, 120},
		func(p *workload.Params, x float64) {
			p.PredictiveTime = x
			p.UseRectQueries = true
		})
}

// BenchmarkAblationOutlierPartition compares the automatic tau against
// tau=infinity (no outlier partition at all): Section 5.2's design choice.
func BenchmarkAblationOutlierPartition(b *testing.B) {
	sc := benchScale()
	for _, mode := range []string{"auto-tau", "no-outlier-partition"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewGenerator(params(workload.SanFrancisco, sc, benchSeed))
				if err != nil {
					b.Fatal(err)
				}
				idx, err := Build(SetupTPRVP, gen, sc.Buffer)
				if err != nil {
					b.Fatal(err)
				}
				if mode == "no-outlier-partition" {
					vp := idx.Index.(*core.Manager)
					for pi := 0; pi < vp.NumPartitions()-1; pi++ {
						vp.SetTau(pi, 1e18)
					}
				}
				m, err := RunOn(idx, SetupTPRVP, gen)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.QueryIO, "queryIO/op")
			}
		})
	}
}

// BenchmarkMovingRangeQueries exercises the third query type end to end
// (the paper's evaluation shows time-slice; the system supports all three).
func BenchmarkMovingRangeQueries(b *testing.B) {
	sc := benchScale()
	for _, s := range []Setup{SetupTPR, SetupTPRVP} {
		b.Run(string(s), func(b *testing.B) {
			gen, err := workload.NewGenerator(params(workload.Chicago, sc, benchSeed))
			if err != nil {
				b.Fatal(err)
			}
			idx, err := Build(s, gen, sc.Buffer)
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range gen.Initial() {
				if err := idx.Insert(o); err != nil {
					b.Fatal(err)
				}
			}
			queries := gen.MovingQueries(200, 30)
			before := idx.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			io := float64(idx.Stats().Reads-before.Reads) / float64(b.N)
			b.ReportMetric(io, "queryIO/op")
		})
	}
}
