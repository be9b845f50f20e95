package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
)

// PartitionerKind names a partitioning objective. The zero value is KindDVA
// so pre-refactor Analysis values (and their persisted encodings) keep their
// meaning unchanged.
type PartitionerKind uint8

const (
	// KindDVA partitions by dominant velocity axes (the paper's technique):
	// one rotated index per DVA plus a catch-all outlier index.
	KindDVA PartitionerKind = iota
	// KindSpeed partitions by concentric speed bands with identity rotation
	// (Xu et al., "Speed Partitioning for Indexing Moving Objects"): band
	// thresholds minimize the expected query-window enlargement over the
	// sampled speed distribution.
	KindSpeed
	// KindNone keeps a single unpartitioned index — the baseline the
	// adaptive chooser falls back to when neither objective pays for its
	// extra structures.
	KindNone
)

// String implements fmt.Stringer.
func (k PartitionerKind) String() string {
	switch k {
	case KindDVA:
		return "dva"
	case KindSpeed:
		return "speed"
	case KindNone:
		return "none"
	default:
		return fmt.Sprintf("PartitionerKind(%d)", uint8(k))
	}
}

// Frame describes one partition independently of the objective that produced
// it: the rotation into the partition's coordinate frame plus the routing
// parameters, in a shape that serializes, so checkpoints and WAL swap
// records can rebuild the exact partition set. Which fields are meaningful
// depends on the owning Analysis' Kind:
//
//   - KindDVA: Axis is the unit DVA direction (sign-canonical, x >= 0) and
//     Tau the perpendicular-speed outlier threshold (Section 5.2); the final
//     frame has IsOutlier set and an identity rotation.
//   - KindSpeed: [SpeedMin, SpeedMax) is the band's speed range; bands tile
//     [0, +Inf) contiguously and rotation is always the identity.
//   - KindNone: a single identity frame.
type Frame struct {
	// Axis is the DVA direction (zero vector for every other frame).
	Axis geom.Vec2
	// Tau is the DVA outlier threshold: an object whose velocity's
	// perpendicular distance to Axis exceeds Tau routes to the outlier
	// frame.
	Tau float64
	// SpeedMin/SpeedMax bound a speed band, lower inclusive, upper
	// exclusive; the top band's SpeedMax is +Inf.
	SpeedMin, SpeedMax float64
	// IsOutlier marks the DVA layout's catch-all partition.
	IsOutlier bool
	// Count is the number of sample points routed to this frame;
	// OutlierCount is how many a DVA frame shed to the outlier frame.
	Count        int
	OutlierCount int
	// Dominance is lambda1/(lambda1+lambda2) of a DVA frame's retained
	// points: 1.0 means a perfectly 1-D velocity space.
	Dominance float64
}

// Rotation returns the world->frame rotation: [PC1; PC2] for a DVA frame,
// the identity for every other frame.
func (f Frame) Rotation() geom.Mat2 {
	if f.IsOutlier || (f.Axis == geom.Vec2{}) {
		return geom.Identity2
	}
	return geom.RotationTo(f.Axis)
}

// Identity reports whether the frame's rotation is the identity (no
// coordinate transform on the insert/query path).
func (f Frame) Identity() bool { return f.IsOutlier || f.Axis == (geom.Vec2{}) }

// Analysis is a partitioner's output: the objective it ran (Kind), one Frame
// per partition — including the DVA layout's outlier frame — plus
// diagnostics. The index manager builds exactly len(Frames) partition
// indexes from it, whatever the objective.
type Analysis struct {
	// Kind is the objective that produced the frames.
	Kind PartitionerKind
	// Frames lists every partition. For KindDVA the outlier frame is last.
	Frames []Frame
	// TotalOutliers counts sample points assigned to the outlier frame.
	TotalOutliers int
	// SampleSize is the number of velocity points analyzed.
	SampleSize int
	// Elapsed is the analyzer's wall-clock run time (Fig. 18 measures it).
	Elapsed time.Duration
}

// Validate checks the structural invariants the manager and the cost model
// rely on: at least one frame; for KindDVA exactly one outlier frame, in
// last position; for KindSpeed contiguous bands from 0 to +Inf with no
// outlier frame; for KindNone a single identity frame.
func (an Analysis) Validate() error {
	if len(an.Frames) == 0 {
		return fmt.Errorf("core: analysis has no partition frames")
	}
	switch an.Kind {
	case KindDVA:
		for i, f := range an.Frames {
			if f.IsOutlier != (i == len(an.Frames)-1) {
				return fmt.Errorf("core: DVA analysis: outlier frame must be exactly the last of %d", len(an.Frames))
			}
		}
		if len(an.Frames) < 2 {
			return fmt.Errorf("core: DVA analysis needs at least one DVA frame plus the outlier frame")
		}
	case KindSpeed:
		lo := 0.0
		for i, f := range an.Frames {
			if f.IsOutlier {
				return fmt.Errorf("core: speed analysis has an outlier frame")
			}
			if f.SpeedMin != lo || f.SpeedMax <= f.SpeedMin {
				return fmt.Errorf("core: speed band %d [%g, %g) is not contiguous from %g", i, f.SpeedMin, f.SpeedMax, lo)
			}
			lo = f.SpeedMax
		}
		if !math.IsInf(lo, 1) {
			return fmt.Errorf("core: speed bands end at %g, want +Inf", lo)
		}
	case KindNone:
		if len(an.Frames) != 1 {
			return fmt.Errorf("core: unpartitioned analysis has %d frames, want 1", len(an.Frames))
		}
	default:
		return fmt.Errorf("core: unknown partitioner kind %d", an.Kind)
	}
	return nil
}

// RouteVel returns the frame index a velocity routes to under the analysis'
// own thresholds: KindDVA, the DVA whose axis is closest in perpendicular
// velocity distance, or the outlier frame when that distance exceeds the
// DVA's tau (Section 5.3); KindSpeed, the band containing |v|; KindNone, the
// single frame. It is the one router: the Manager places every record with
// it, and EstimateCost scores candidate analyses that have no manager yet.
func (an Analysis) RouteVel(v geom.Vec2) int {
	switch an.Kind {
	case KindSpeed:
		s := v.Norm()
		for i, f := range an.Frames {
			if s < f.SpeedMax {
				return i
			}
		}
		return len(an.Frames) - 1
	case KindNone:
		return 0
	default: // KindDVA
		best, bestDist := -1, 0.0
		for i, f := range an.Frames {
			if f.IsOutlier {
				continue
			}
			d := v.PerpDistToAxis(f.Axis)
			if best == -1 || d < bestDist {
				best, bestDist = i, d
			}
		}
		if best == -1 || bestDist > an.Frames[best].Tau {
			return len(an.Frames) - 1
		}
		return best
	}
}

// Partitioner is a pluggable partitioning objective: it turns a velocity
// sample into partition frames plus diagnostics. Implementations
// must be deterministic for a given sample (the durable Store replays swap
// decisions from logged analyses, never by re-running a partitioner).
type Partitioner interface {
	// Analyze derives the partition frames from a velocity sample.
	Analyze(sample []geom.Vec2) (Analysis, error)
}

// DVAPartitioner is the paper's objective: dominant velocity axes via the
// PCA-guided k-means of Algorithm 2, tau per axis from Eq. 10.
type DVAPartitioner struct {
	Config AnalyzerConfig
}

// Analyze implements Partitioner (see the package-level Analyze).
func (p DVAPartitioner) Analyze(sample []geom.Vec2) (Analysis, error) {
	return Analyze(sample, p.Config)
}

// SpeedPartitioner partitions by concentric speed bands: identity rotation,
// thresholds minimizing the expected enlargement over the sampled speed
// distribution (see OptimalSpeedThresholds).
type SpeedPartitioner struct {
	// Bands is the number of speed bands (<= 0 takes 2, matching the DVA
	// default K so the chooser compares equal structure counts).
	Bands int
}

// Analyze implements Partitioner.
func (p SpeedPartitioner) Analyze(sample []geom.Vec2) (Analysis, error) {
	start := time.Now()
	bands := p.Bands
	if bands <= 0 {
		bands = 2
	}
	if len(sample) == 0 {
		return Analysis{}, fmt.Errorf("core: empty sample cannot form speed bands")
	}
	speeds := make([]float64, len(sample))
	for i, v := range sample {
		speeds[i] = v.Norm()
	}
	cuts := OptimalSpeedThresholds(speeds, bands, tauBuckets)
	an := Analysis{Kind: KindSpeed, SampleSize: len(sample)}
	lo := 0.0
	for i, hi := range cuts {
		f := Frame{SpeedMin: lo}
		if i == len(cuts)-1 {
			f.SpeedMax = math.Inf(1)
		} else {
			f.SpeedMax = hi
		}
		for _, s := range speeds {
			if s >= f.SpeedMin && s < f.SpeedMax {
				f.Count++
			}
		}
		an.Frames = append(an.Frames, f)
		lo = f.SpeedMax
	}
	an.Elapsed = time.Since(start)
	return an, nil
}

// OptimalSpeedThresholds picks band upper bounds t_1 < ... < t_B (t_B is the
// sample maximum; the caller widens the top band to +Inf) minimizing the
// Eq.-10-style enlargement objective sum_j n_j * t_j over an equal-width
// speed histogram: a band's query windows grow with its top speed, so the
// expected enlargement mass of a partitioning is each band's population
// weighted by its own maximum speed — the same population-vs-expansion
// trade Eq. 10 makes for tau, applied to concentric bands. Solved exactly
// over the histogram edges by dynamic programming.
func OptimalSpeedThresholds(speeds []float64, bands, buckets int) []float64 {
	if bands <= 0 {
		bands = 2
	}
	smax := 0.0
	for _, s := range speeds {
		if s > smax {
			smax = s
		}
	}
	if smax == 0 || bands == 1 {
		// Degenerate: every object in one band.
		return []float64{smax}
	}
	if buckets < bands {
		buckets = bands
	}
	counts := make([]int, buckets)
	for _, s := range speeds {
		b := int(s / smax * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	cum := make([]int, buckets+1) // cum[e] = count of speeds below edge e
	for b := 0; b < buckets; b++ {
		cum[b+1] = cum[b] + counts[b]
	}
	edge := func(e int) float64 { return smax * float64(e) / float64(buckets) }
	// cost[j][e] = minimal sum n_i*t_i splitting edges (0, e] into j bands.
	const inf = math.MaxFloat64
	prev := make([]float64, buckets+1)
	curr := make([]float64, buckets+1)
	choice := make([][]int, bands+1)
	for e := 0; e <= buckets; e++ {
		prev[e] = float64(cum[e]) * edge(e) // one band up to edge e
	}
	for j := 2; j <= bands; j++ {
		choice[j] = make([]int, buckets+1)
		for e := 0; e <= buckets; e++ {
			curr[e] = inf
			if e < j {
				continue
			}
			for m := j - 1; m < e; m++ {
				c := prev[m] + float64(cum[e]-cum[m])*edge(e)
				if c < curr[e] {
					curr[e] = c
					choice[j][e] = m
				}
			}
		}
		prev, curr = curr, prev
	}
	// Recover the cut edges ending at the full range.
	cuts := make([]float64, bands)
	e := buckets
	for j := bands; j >= 1; j-- {
		cuts[j-1] = edge(e)
		if j > 1 {
			e = choice[j][e]
		}
	}
	return cuts
}

// NonePartitioner is the identity objective: one unpartitioned frame.
type NonePartitioner struct{}

// Analyze implements Partitioner.
func (NonePartitioner) Analyze(sample []geom.Vec2) (Analysis, error) {
	return Analysis{
		Kind:       KindNone,
		Frames:     []Frame{{SpeedMax: math.Inf(1), Count: len(sample)}},
		SampleSize: len(sample),
	}, nil
}
