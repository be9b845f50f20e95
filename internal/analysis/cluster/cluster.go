// Package cluster implements the clustering algorithms of Section 5.1 of
// the VP paper:
//
//   - KMeansAxes — the paper's approach (Algorithm 2, "FindDVAs"): k-means
//     where each cluster is represented by the first principal component of
//     its members and points are assigned by *perpendicular distance to that
//     axis*. This clusters velocity points by direction of travel.
//   - KMeansCentroids — naive approach II: classic centroid k-means, kept as
//     a baseline (the paper shows it fails to find DVAs, Fig. 10b/12a).
//
// Naive approach I (plain PCA over the whole sample) is just
// pca.Analyze(points, ...); the ablation bench calls it directly.
package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis/pca"
	"repro/internal/geom"
)

// AxisCluster is one DVA partition produced by KMeansAxes.
type AxisCluster struct {
	Axis    geom.Vec2 // unit direction of the cluster's 1st PC (the DVA)
	Count   int       // number of member points
	Var1    float64   // scatter along the axis
	Var2    float64   // scatter perpendicular to the axis
	Members []int     // indices into the input slice
}

// CentroidCluster is one partition produced by KMeansCentroids.
type CentroidCluster struct {
	Centroid geom.Vec2
	Axis     geom.Vec2 // 1st PC of the members (computed afterwards)
	Count    int
	Members  []int
}

// The iteration bounds shared by both algorithms.
const (
	maxIter  = 100 // cap on reassignment rounds
	restarts = 2   // extra random restarts of KMeansAxes, best objective wins
)

// Options controls the clustering run.
type Options struct {
	Seed int64 // RNG seed for the random initial assignment
}

// KMeansAxes partitions points into k clusters by perpendicular distance to
// each cluster's first principal component (Algorithm 2). It returns the
// clusters and the assignment (point index -> cluster index).
//
// Degenerate situations are handled the way a robust implementation must:
// an emptied cluster is reseeded with the point farthest from its current
// axis assignment, and the whole procedure is restarted a few times with
// different random initial partitions, keeping the assignment with the
// smallest total squared perpendicular distance.
func KMeansAxes(points []geom.Vec2, k int, opt Options) ([]AxisCluster, []int, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if len(points) < k {
		return nil, nil, fmt.Errorf("cluster: %d points cannot form %d clusters", len(points), k)
	}
	bestObjective := -1.0
	var bestAssign []int
	var bestAxes []geom.Vec2
	rng := rand.New(rand.NewSource(opt.Seed))

	for attempt := 0; attempt <= restarts; attempt++ {
		assign, axes, obj := runAxesOnce(points, k, rng)
		if bestObjective < 0 || obj < bestObjective {
			bestObjective = obj
			bestAssign = assign
			bestAxes = axes
		}
	}

	clusters := make([]AxisCluster, k)
	for c := range clusters {
		clusters[c].Axis = bestAxes[c]
	}
	for i, c := range bestAssign {
		clusters[c].Members = append(clusters[c].Members, i)
		clusters[c].Count++
	}
	// Final per-cluster PCA for the variance diagnostics (and to refresh
	// the axis exactly once more over the final membership).
	for c := range clusters {
		if clusters[c].Count == 0 {
			continue
		}
		member := make([]geom.Vec2, 0, clusters[c].Count)
		for _, i := range clusters[c].Members {
			member = append(member, points[i])
		}
		res, err := pca.Analyze(member, pca.Uncentered)
		if err == nil {
			clusters[c].Axis = res.PC1
			clusters[c].Var1 = res.Lambda1
			clusters[c].Var2 = res.Lambda2
		}
	}
	return clusters, bestAssign, nil
}

// runAxesOnce performs one randomized run of Algorithm 2 and returns the
// assignment, the final axes and the total squared perpendicular distance.
func runAxesOnce(points []geom.Vec2, k int, rng *rand.Rand) ([]int, []geom.Vec2, float64) {
	n := len(points)
	assign := make([]int, n)
	// Line 3-4: random initial partition, but guarantee every cluster gets
	// at least one point so the first PCA is defined.
	perm := rng.Perm(n)
	for i, p := range perm {
		if i < k {
			assign[p] = i
		} else {
			assign[p] = rng.Intn(k)
		}
	}
	axes := make([]geom.Vec2, k)
	members := make([][]geom.Vec2, k)

	for iter := 0; iter < maxIter; iter++ {
		// Line 6: recompute the 1st PC of each partition.
		for c := range members {
			members[c] = members[c][:0]
		}
		for i, c := range assign {
			members[c] = append(members[c], points[i])
		}
		for c := range axes {
			if len(members[c]) == 0 {
				// Reseed an emptied cluster with a random point.
				axes[c] = points[rng.Intn(n)].Normalize()
				if axes[c].Norm() == 0 {
					axes[c] = geom.Vec2{X: 1}
				}
				continue
			}
			res, err := pca.Analyze(members[c], pca.Uncentered)
			if err != nil {
				axes[c] = geom.Vec2{X: 1}
				continue
			}
			axes[c] = res.PC1
		}
		// Lines 7-9: move each point to the axis with the smallest
		// perpendicular distance.
		moved := false
		for i, p := range points {
			best := assign[i]
			bestD := p.PerpDistToAxis(axes[best])
			for c, ax := range axes {
				if c == best {
					continue
				}
				if d := p.PerpDistToAxis(ax); d < bestD {
					bestD = d
					best = c
				}
			}
			if best != assign[i] {
				assign[i] = best
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	var obj float64
	for i, p := range points {
		d := p.PerpDistToAxis(axes[assign[i]])
		obj += d * d
	}
	return assign, axes, obj
}

// KMeansCentroids is classic k-means on the raw points (naive approach II).
// Each returned cluster also carries the 1st PC of its members, which is
// what the naive approach would report as that cluster's DVA.
func KMeansCentroids(points []geom.Vec2, k int, opt Options) ([]CentroidCluster, []int, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if len(points) < k {
		return nil, nil, fmt.Errorf("cluster: %d points cannot form %d clusters", len(points), k)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	n := len(points)

	// Forgy initialization: k distinct random points as seeds.
	centroids := make([]geom.Vec2, k)
	for i, p := range rng.Perm(n)[:k] {
		centroids[i] = points[p]
	}
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		moved := false
		for i, p := range points {
			best, bestD := 0, p.DistTo(centroids[0])
			for c := 1; c < k; c++ {
				if d := p.DistTo(centroids[c]); d < bestD {
					bestD = d
					best = c
				}
			}
			if assign[i] != best {
				assign[i] = best
				moved = true
			}
		}
		counts := make([]int, k)
		sums := make([]geom.Vec2, k)
		for i, c := range assign {
			counts[c]++
			sums[c] = sums[c].Add(points[i])
		}
		for c := range centroids {
			if counts[c] == 0 {
				centroids[c] = points[rng.Intn(n)]
				continue
			}
			centroids[c] = sums[c].Scale(1 / float64(counts[c]))
		}
		if !moved && iter > 0 {
			break
		}
	}

	clusters := make([]CentroidCluster, k)
	for c := range clusters {
		clusters[c].Centroid = centroids[c]
	}
	for i, c := range assign {
		clusters[c].Members = append(clusters[c].Members, i)
		clusters[c].Count++
	}
	for c := range clusters {
		if clusters[c].Count == 0 {
			clusters[c].Axis = geom.Vec2{X: 1}
			continue
		}
		member := make([]geom.Vec2, 0, clusters[c].Count)
		for _, i := range clusters[c].Members {
			member = append(member, points[i])
		}
		if res, err := pca.Analyze(member, pca.Centered); err == nil {
			clusters[c].Axis = res.PC1
		}
	}
	return clusters, assign, nil
}
