package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/analysis/cluster"
	"repro/internal/geom"
	"repro/internal/storage"
)

// speedMixSample synthesizes the workload DVA cannot help with: directions
// uniform over the circle (no dominant axis), speeds bimodal — slow
// pedestrian-like movers plus a fast highway cohort.
func speedMixSample(n int, slowFrac, slowSpeed, fastSpeed float64, seed int64) []geom.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Vec2, n)
	for i := range out {
		s := fastSpeed * (0.8 + rng.Float64()*0.4)
		if rng.Float64() < slowFrac {
			s = slowSpeed * (0.5 + rng.Float64())
		}
		ang := rng.Float64() * 2 * math.Pi
		out[i] = geom.V(s*math.Cos(ang), s*math.Sin(ang))
	}
	return out
}

func TestSpeedPartitionerBimodalSample(t *testing.T) {
	sample := speedMixSample(4000, 0.6, 2, 100, 1)
	an, err := SpeedPartitioner{Bands: 2}.Analyze(sample)
	if err != nil {
		t.Fatal(err)
	}
	if an.Kind != KindSpeed || len(an.Frames) != 2 || an.SampleSize != 4000 {
		t.Fatalf("analysis: %+v", an)
	}
	if err := an.Validate(); err != nil {
		t.Fatal(err)
	}
	// The optimal cut separates the walkers (speeds in [1, 3]) from the
	// ~100 m/ts highway cohort; the DP hugs the slow mode since the
	// objective charges each band its population times its top speed.
	cut := an.Frames[0].SpeedMax
	if cut <= 3 || cut > 80 {
		t.Fatalf("band threshold %g does not separate the modes", cut)
	}
	if !math.IsInf(an.Frames[1].SpeedMax, 1) {
		t.Fatalf("top band must reach +Inf, got %g", an.Frames[1].SpeedMax)
	}
	if an.Frames[0].Count+an.Frames[1].Count != len(sample) {
		t.Fatal("band counts do not cover the sample")
	}
	if an.Frames[0].Count < len(sample)/2 {
		t.Fatalf("slow band holds only %d of %d", an.Frames[0].Count, len(sample))
	}
	// RouteVel honors the band bounds.
	if an.RouteVel(geom.V(1, 0)) != 0 || an.RouteVel(geom.V(0, 90)) != 1 {
		t.Fatal("RouteVel mis-routes across the band threshold")
	}
	// Errors and degenerate inputs.
	if _, err := (SpeedPartitioner{}).Analyze(nil); err == nil {
		t.Fatal("empty sample accepted")
	}
	zero, err := SpeedPartitioner{Bands: 3}.Analyze([]geom.Vec2{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.Frames) != 1 || zero.Validate() != nil {
		t.Fatalf("all-zero sample should collapse to one band: %+v", zero)
	}
}

func TestOptimalSpeedThresholdsMatchesExhaustiveSearch(t *testing.T) {
	cost := func(speeds, cuts []float64) float64 {
		total := 0.0
		lo := 0.0
		for _, hi := range cuts {
			n := 0
			for _, s := range speeds {
				if s >= lo && (s < hi || hi == cuts[len(cuts)-1]) {
					n++
				}
			}
			total += float64(n) * hi
			lo = hi
		}
		return total
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(200)
		speeds := make([]float64, n)
		for i := range speeds {
			if rng.Float64() < 0.7 {
				speeds[i] = rng.Float64() * 10
			} else {
				speeds[i] = 50 + rng.Float64()*50
			}
		}
		const buckets = 40
		got := OptimalSpeedThresholds(speeds, 2, buckets)
		smax := 0.0
		for _, s := range speeds {
			smax = math.Max(smax, s)
		}
		// Exhaustive sweep of the single interior cut over the same edges.
		best := math.Inf(1)
		for e := 1; e < buckets; e++ {
			c := cost(speeds, []float64{smax * float64(e) / buckets, smax})
			if c < best {
				best = c
			}
		}
		return cost(speeds, got) <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	// Degenerate cases.
	if got := OptimalSpeedThresholds(nil, 2, 100); len(got) != 1 || got[0] != 0 {
		t.Fatalf("empty speeds: %v", got)
	}
	if got := OptimalSpeedThresholds([]float64{5, 7}, 1, 100); len(got) != 1 || got[0] != 7 {
		t.Fatalf("one band: %v", got)
	}
}

func TestNonePartitionerSingleFrame(t *testing.T) {
	an, err := NonePartitioner{}.Analyze(make([]geom.Vec2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if an.Kind != KindNone || len(an.Frames) != 1 || an.Frames[0].Count != 9 {
		t.Fatalf("analysis: %+v", an)
	}
	if err := an.Validate(); err != nil {
		t.Fatal(err)
	}
	if !an.Frames[0].Identity() || an.RouteVel(geom.V(99, 99)) != 0 {
		t.Fatal("none frame must be identity and route everything to 0")
	}
}

func TestAnalysisValidateRejectsMalformed(t *testing.T) {
	inf := math.Inf(1)
	for name, an := range map[string]Analysis{
		"empty":            {},
		"dva-no-outlier":   {Kind: KindDVA, Frames: []Frame{{Axis: geom.V(1, 0)}, {Axis: geom.V(0, 1)}}},
		"dva-outlier-mid":  {Kind: KindDVA, Frames: []Frame{{IsOutlier: true}, {Axis: geom.V(1, 0)}}},
		"dva-only-outlier": {Kind: KindDVA, Frames: []Frame{{IsOutlier: true}}},
		"speed-gap":        {Kind: KindSpeed, Frames: []Frame{{SpeedMax: 10}, {SpeedMin: 20, SpeedMax: inf}}},
		"speed-finite-top": {Kind: KindSpeed, Frames: []Frame{{SpeedMax: 10}, {SpeedMin: 10, SpeedMax: 20}}},
		"speed-outlier":    {Kind: KindSpeed, Frames: []Frame{{SpeedMax: inf, IsOutlier: true}}},
		"none-two":         {Kind: KindNone, Frames: []Frame{{SpeedMax: inf}, {SpeedMax: inf}}},
		"unknown-kind":     {Kind: PartitionerKind(9), Frames: []Frame{{}}},
	} {
		if err := an.Validate(); err == nil {
			t.Errorf("%s: malformed analysis validated", name)
		}
	}
}

// TestDriftStructuralMismatchGuard pins the K-mismatch guard: a fresh
// analysis whose kind or partition count differs from the live manager must
// read as maximally drifted — never as a partial match over mismatched
// indices, never a panic.
func TestDriftStructuralMismatchGuard(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemStore(), 200)
	sample := sfLikeSample(3000, 0, math.Pi/2, 2.0, 0.05, 8)
	m := newManager(t, tprFactory(pool), sample) // K=2 DVA manager

	// Same layout re-analyzed: essentially no drift.
	an, err := Analyze(sample, AnalyzerConfig{K: 2, Cluster: cluster.Options{Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Drift(an); d > 0.05 {
		t.Fatalf("re-analysis of the same sample drifts %g", d)
	}
	// K=3 analysis against the K=2 manager: count mismatch -> DriftMax.
	an3, err := Analyze(sample, AnalyzerConfig{K: 3, Cluster: cluster.Options{Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Drift(an3); d != DriftMax {
		t.Fatalf("K-mismatch drift = %g, want DriftMax", d)
	}
	// Cross-kind candidates: DriftMax regardless of frame count.
	speedAn, err := SpeedPartitioner{Bands: 3}.Analyze(sample)
	if err != nil {
		t.Fatal(err)
	}
	noneAn, _ := NonePartitioner{}.Analyze(sample)
	for _, other := range []Analysis{speedAn, noneAn} {
		if d := m.Drift(other); d != DriftMax {
			t.Fatalf("%s vs dva drift = %g, want DriftMax", other.Kind, d)
		}
	}

	// Speed-band manager: threshold shifts scale into (0, DriftMax); band
	// count mismatch snaps to DriftMax.
	speed2, err := SpeedPartitioner{Bands: 2}.Analyze(sample)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewManager(speed2, ManagerConfig{}, tprFactory(pool))
	if err != nil {
		t.Fatal(err)
	}
	if d := sm.Drift(speed2); d != 0 {
		t.Fatalf("identical speed analysis drifts %g", d)
	}
	shifted := speed2
	shifted.Frames = append([]Frame(nil), speed2.Frames...)
	shifted.Frames[0].SpeedMax *= 1.5
	shifted.Frames[1].SpeedMin = shifted.Frames[0].SpeedMax
	if d := sm.Drift(shifted); d <= 0 || d >= DriftMax {
		t.Fatalf("shifted threshold drift = %g, want in (0, DriftMax)", d)
	}
	if d := sm.Drift(speedAn); d != DriftMax {
		t.Fatalf("band-count mismatch drift = %g, want DriftMax", d)
	}
	if d := sm.Drift(an); d != DriftMax {
		t.Fatalf("dva vs speed drift = %g, want DriftMax", d)
	}
}

// TestEstimateCostRanksObjectives pins the chooser's signal: on an axis-
// bundle sample the DVA layout scores best, on an isotropic speed mixture
// the speed bands do, and the unpartitioned baseline never wins either.
func TestEstimateCostRanksObjectives(t *testing.T) {
	queries := []QueryShape{{HalfW: 500, HalfH: 500, Window: 60}}
	costs := func(sample []geom.Vec2) (dva, speed, none float64) {
		dvaAn, err := Analyze(sample, AnalyzerConfig{K: 2, Cluster: cluster.Options{Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		speedAn, err := SpeedPartitioner{Bands: 2}.Analyze(sample)
		if err != nil {
			t.Fatal(err)
		}
		noneAn, _ := NonePartitioner{}.Analyze(sample)
		return EstimateCost(dvaAn, sample, queries),
			EstimateCost(speedAn, sample, queries),
			EstimateCost(noneAn, sample, queries)
	}

	axis := sfLikeSample(4000, 0, math.Pi/2, 2.0, 0.03, 3)
	d, s, n := costs(axis)
	if d >= s || d >= n {
		t.Fatalf("axis bundle: dva %g should beat speed %g and none %g", d, s, n)
	}

	mix := speedMixSample(4000, 0.6, 2, 100, 4)
	d, s, n = costs(mix)
	if s >= d || s >= n {
		t.Fatalf("speed mixture: speed %g should beat dva %g and none %g", s, d, n)
	}

	// Degenerate inputs score zero rather than skewing a comparison.
	noneAn, _ := NonePartitioner{}.Analyze(mix)
	if EstimateCost(noneAn, nil, queries) != 0 || EstimateCost(noneAn, mix, nil) != 0 {
		t.Fatal("empty sample or query log must score 0")
	}
}

// TestEstimateCostSkipsNonFiniteShapes pins the chooser against a poisoned
// query log: one shape with a NaN or infinite field must not change any
// candidate's score, so a log containing it elects the same objective as the
// log without it. (math.Max(NaN, 0) is NaN: unskipped, the shape made every
// score NaN, every "cost < best" false, and the first candidate the winner.)
func TestEstimateCostSkipsNonFiniteShapes(t *testing.T) {
	sample := speedMixSample(2000, 0.6, 2, 100, 4) // speed bands beat DVA and none
	clean := []QueryShape{{HalfW: 500, HalfH: 500, Window: 60}, {Window: 30}}
	elect := func(queries []QueryShape) (PartitionerKind, []float64) {
		best, bestCost, costs := KindDVA, math.Inf(1), []float64(nil)
		for _, p := range []Partitioner{DVAPartitioner{Config: AnalyzerConfig{K: 2}}, SpeedPartitioner{Bands: 2}, NonePartitioner{}} {
			an, err := p.Analyze(sample)
			if err != nil {
				t.Fatal(err)
			}
			cost := EstimateCost(an, sample, queries)
			costs = append(costs, cost)
			if cost < bestCost {
				best, bestCost = p.Kind(), cost
			}
		}
		return best, costs
	}
	want, wantCosts := elect(clean)
	if want != KindSpeed {
		t.Fatalf("clean log elects %v, want speed (the test needs a winner that is not the first candidate)", want)
	}
	for _, bad := range []QueryShape{{Window: math.NaN()}, {HalfW: math.Inf(1), HalfH: 1, Window: 1}, {HalfH: math.NaN()}} {
		got, costs := elect(append([]QueryShape{bad}, clean...))
		if got != want || fmt.Sprint(costs) != fmt.Sprint(wantCosts) {
			t.Errorf("log with %+v elects %v at costs %v; want %v at %v", bad, got, costs, want, wantCosts)
		}
	}
	if c := EstimateCost(Analysis{Kind: KindNone, Frames: []Frame{{}}}, sample, []QueryShape{{Window: math.NaN()}}); c != 0 {
		t.Errorf("a log of only hostile shapes scores %v, want 0", c)
	}
}
