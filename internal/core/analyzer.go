// Package core implements the velocity partitioning (VP) technique — the
// contribution of "Boosting Moving Object Indexing through Velocity
// Partitioning" (Nguyen, He, Zhang, Ward; PVLDB 5(9), 2012) — behind a
// pluggable partitioning-objective contract.
//
// The package has the paper's two components (Fig. 9), generalized:
//
//   - the velocity analyzers (partitioner.go, this file): a Partitioner
//     turns a velocity sample into partition Frames. The paper's objective
//     (DVAPartitioner / Analyze) finds the dominant velocity axes (DVAs)
//     with the PCA-guided k-means of Algorithm 2 and derives each
//     partition's outlier threshold tau by minimizing the search-area
//     expansion objective of Section 5.2 (Eq. 10); SpeedPartitioner
//     implements concentric speed bands, and NonePartitioner the
//     unpartitioned baseline. EstimateCost (cost.go) scores any candidate
//     Analysis against a recent query-shape log so an adaptive store can
//     pick the cheapest objective per workload;
//   - the index manager (manager.go): maintains one moving-object index per
//     partition frame — rotated for DVA frames, identity otherwise — and
//     routes inserts, deletes, updates and range queries across them
//     (Algorithms 1 and 3), whatever objective produced the frames.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analysis/cluster"
	"repro/internal/analysis/pca"
	"repro/internal/geom"
)

// tauBuckets is the resolution of the |v_perp| histogram tau is picked
// from and of the speed histogram the speed-band thresholds are searched
// over (paper: "a velocity histogram containing 100 buckets for determining
// tau").
const tauBuckets = 100

// AnalyzerConfig parameterizes the DVA velocity analyzer. Zero values take
// the paper's settings.
type AnalyzerConfig struct {
	// K is the number of DVA partitions. The paper sets 2 for road
	// networks ("most road networks have two dominant traffic directions").
	K int
	// Cluster carries the k-means seed.
	Cluster cluster.Options
}

func (c AnalyzerConfig) withDefaults() AnalyzerConfig {
	if c.K <= 0 {
		c.K = 2
	}
	return c
}

// Analyze runs Algorithm 1 (VelocityPartitioning) over a sample of velocity
// points: find the DVAs with the PC-distance k-means, derive tau per
// partition, shed outliers, and recompute each DVA over the survivors. The
// result is a KindDVA Analysis whose frames are the K DVA partitions
// followed by the outlier frame.
func Analyze(sample []geom.Vec2, cfg AnalyzerConfig) (Analysis, error) {
	start := time.Now()
	cfg = cfg.withDefaults()
	if len(sample) < cfg.K {
		return Analysis{}, fmt.Errorf("core: sample of %d points cannot form %d partitions", len(sample), cfg.K)
	}
	// Line 2: find the DVA partitions.
	clusters, _, err := cluster.KMeansAxes(sample, cfg.K, cfg.Cluster)
	if err != nil {
		return Analysis{}, err
	}
	out := Analysis{Kind: KindDVA, Frames: make([]Frame, cfg.K), SampleSize: len(sample)}
	for ci, cl := range clusters {
		member := make([]geom.Vec2, 0, cl.Count)
		for _, idx := range cl.Members {
			member = append(member, sample[idx])
		}
		f := Frame{Axis: cl.Axis}
		if len(member) == 0 {
			out.Frames[ci] = f
			continue
		}
		// Line 4: tau from the perpendicular-speed distribution (Sec. 5.2).
		perp := make([]float64, len(member))
		for i, v := range member {
			perp[i] = v.PerpDistToAxis(cl.Axis)
		}
		f.Tau = OptimalTau(perp)
		// Line 5: shed the outliers.
		kept := member[:0]
		for i, v := range member {
			if perp[i] <= f.Tau {
				kept = append(kept, v)
			} else {
				f.OutlierCount++
			}
		}
		f.Count = len(kept)
		out.TotalOutliers += f.OutlierCount
		// Line 6: recompute the DVA over the survivors for a more precise
		// axis (and the dominance diagnostic).
		if len(kept) > 0 {
			if res, err := pca.Analyze(kept, pca.Uncentered); err == nil {
				f.Axis = res.PC1
				_, f.Dominance = res.Axis()
			}
		}
		out.Frames[ci] = f
	}
	out.Frames = append(out.Frames, Frame{IsOutlier: true, Count: out.TotalOutliers})
	out.Elapsed = time.Since(start)
	return out, nil
}

// OptimalTau picks the outlier threshold for one DVA partition by
// minimizing Eq. 10 of the paper, n_d(tau) * (v_yd(tau) - v_ymax), over an
// equal-width cumulative histogram of tauBuckets buckets over the
// partition's perpendicular speeds (v_yd(tau) = tau itself: the maximum
// perpendicular speed retained).
//
// Intuition: retaining more objects (larger n_d) is good only while the
// retained perpendicular speed stays well below the partition-wide maximum;
// the product trades the DVA partition's own expansion rate against pushing
// everything to the 2-D outlier partition.
func OptimalTau(perpSpeeds []float64) float64 {
	if len(perpSpeeds) == 0 {
		return 0
	}
	vymax := 0.0
	for _, v := range perpSpeeds {
		if v > vymax {
			vymax = v
		}
	}
	if vymax == 0 {
		// Perfectly 1-D partition: nothing to shed.
		return 0
	}
	// Cumulative histogram over [0, vymax].
	var counts [tauBuckets]int
	for _, v := range perpSpeeds {
		b := int(v / vymax * tauBuckets)
		if b >= tauBuckets {
			b = tauBuckets - 1
		}
		counts[b]++
	}
	bestTau := vymax
	bestCost := math.Inf(1)
	cum := 0
	for b := 0; b < tauBuckets; b++ {
		cum += counts[b]
		tau := vymax * float64(b+1) / tauBuckets
		cost := float64(cum) * (tau - vymax)
		if cost < bestCost {
			bestCost = cost
			bestTau = tau
		}
	}
	return bestTau
}
