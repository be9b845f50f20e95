// Package roadnet provides the road-network substrate for the benchmark
// workloads: a synthetic network generator with controlled direction skew
// and density, and an event-driven trip simulator that moves objects along
// edges with piecewise-linear motion.
//
// The VP paper evaluates on four OSM-derived networks (Chicago, San
// Francisco, Melbourne CBD, New York). Those extracts are not available
// here, so the generator synthesizes networks that preserve the two
// properties the paper's experiments actually exercise:
//
//  1. the *direction skew* of the velocity distribution the network induces
//     (CH most skewed ... NY least, Section 6), controlled by the angular
//     jitter of the street grid and the fraction of diagonal connectors;
//  2. the *edge length / density*, which sets the update frequency (NY and
//     MEL have the most nodes/edges and hence the highest update rate).
package roadnet

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// NodeID indexes a network node.
type NodeID int32

// Node is a road intersection (or street end).
type Node struct {
	Pos geom.Vec2
}

// Edge is one directed half of a road segment in the adjacency list.
type Edge struct {
	To    NodeID
	Limit float64 // speed limit as a fraction of the workload max speed (0,1]
}

// Network is an undirected road graph stored as adjacency lists (each
// undirected segment appears as two directed edges).
type Network struct {
	Nodes []Node
	Adj   [][]Edge
}

// NumEdges returns the undirected segment count.
func (n *Network) NumEdges() int {
	total := 0
	for _, a := range n.Adj {
		total += len(a)
	}
	return total / 2
}

// addEdge inserts the undirected segment a-b.
func (n *Network) addEdge(a, b NodeID, limit float64) {
	n.Adj[a] = append(n.Adj[a], Edge{To: b, Limit: limit})
	n.Adj[b] = append(n.Adj[b], Edge{To: a, Limit: limit})
}

// GenConfig controls the synthetic network generator.
type GenConfig struct {
	// Domain is the covered data space.
	Domain geom.Rect
	// BaseAngle rotates the whole grid (radians); the two street families
	// run at BaseAngle and BaseAngle+90 degrees.
	BaseAngle float64
	// Spacing is the distance between parallel streets (m). Smaller
	// spacing => shorter edges => more nodes and more frequent updates.
	Spacing float64
	// AngleJitter is the per-node positional jitter expressed as a
	// fraction of Spacing; it bends streets so edge directions scatter
	// around the grid axes (more jitter => less velocity skew).
	AngleJitter float64
	// DiagonalFrac adds a diagonal connector across this fraction of grid
	// cells (Broadway-style avenues): a third movement direction.
	DiagonalFrac float64
	// ArterialEvery makes every k-th street an arterial with speed limit
	// 1.0; other streets get ResidentialLimit. 0 disables arterials.
	ArterialEvery int
	// ResidentialLimit is the non-arterial speed limit fraction (0,1].
	ResidentialLimit float64
	// Seed makes generation deterministic.
	Seed int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Domain.IsEmpty() || c.Domain.Area() == 0 {
		c.Domain = geom.R(0, 0, 100000, 100000)
	}
	if c.Spacing <= 0 {
		c.Spacing = 800
	}
	if c.ResidentialLimit <= 0 || c.ResidentialLimit > 1 {
		c.ResidentialLimit = 0.5
	}
	if c.ArterialEvery < 0 {
		c.ArterialEvery = 0
	}
	return c
}

// Generate builds a jittered, optionally diagonal-laced grid network
// covering the domain.
func Generate(cfg GenConfig) (*Network, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	u := geom.V(math.Cos(cfg.BaseAngle), math.Sin(cfg.BaseAngle))
	v := u.Perp()
	// Lattice index range big enough to cover the (rotated) domain: the
	// domain diagonal over the spacing, centered.
	diag := math.Hypot(cfg.Domain.Width(), cfg.Domain.Height())
	half := int(diag/cfg.Spacing)/2 + 2
	origin := cfg.Domain.Center()

	type cellKey struct{ i, j int }
	ids := make(map[cellKey]NodeID)
	net := &Network{}

	inDomain := func(p geom.Vec2) bool { return cfg.Domain.ContainsPoint(p) }
	nodeAt := func(i, j int) (NodeID, bool) {
		if id, ok := ids[cellKey{i, j}]; ok {
			return id, ok
		}
		base := origin.Add(u.Scale(float64(i) * cfg.Spacing)).Add(v.Scale(float64(j) * cfg.Spacing))
		jit := geom.V(rng.NormFloat64(), rng.NormFloat64()).Scale(cfg.AngleJitter * cfg.Spacing)
		p := base.Add(jit)
		if !inDomain(p) {
			return 0, false
		}
		id := NodeID(len(net.Nodes))
		net.Nodes = append(net.Nodes, Node{Pos: p})
		net.Adj = append(net.Adj, nil)
		ids[cellKey{i, j}] = id
		return id, true
	}
	limitFor := func(line int) float64 {
		if cfg.ArterialEvery > 0 && line%cfg.ArterialEvery == 0 {
			return 1.0
		}
		return cfg.ResidentialLimit
	}

	for i := -half; i <= half; i++ {
		for j := -half; j <= half; j++ {
			a, ok := nodeAt(i, j)
			if !ok {
				continue
			}
			// Edge along u (constant j line) and along v (constant i line).
			if b, ok := nodeAt(i+1, j); ok {
				net.addEdge(a, b, limitFor(j))
			}
			if b, ok := nodeAt(i, j+1); ok {
				net.addEdge(a, b, limitFor(i))
			}
			if cfg.DiagonalFrac > 0 && rng.Float64() < cfg.DiagonalFrac {
				if b, ok := nodeAt(i+1, j+1); ok {
					net.addEdge(a, b, cfg.ResidentialLimit)
				}
			}
		}
	}
	if net.NumEdges() == 0 {
		return nil, fmt.Errorf("roadnet: generated network has no edges (domain %v, spacing %g)",
			cfg.Domain, cfg.Spacing)
	}
	return net, nil
}

// Preset identifies a benchmark network preset mirroring the qualitative
// characteristics of the paper's four road networks (see package comment).
type Preset string

const (
	// Chicago: the most skewed velocity distribution (near-perfect grid),
	// long edges (fewest updates).
	Chicago Preset = "CH"
	// SanFrancisco: strongly two-axis with modest jitter.
	SanFrancisco Preset = "SA"
	// Melbourne: denser CBD grid, more jitter, a few diagonals; high
	// update frequency.
	Melbourne Preset = "MEL"
	// NewYork: densest, most diagonals (least skew), highest update
	// frequency.
	NewYork Preset = "NY"
)

// PresetConfig returns the generator configuration for a preset over the
// given domain.
func PresetConfig(p Preset, domain geom.Rect, seed int64) (GenConfig, error) {
	base := GenConfig{Domain: domain, Seed: seed, ArterialEvery: 5, ResidentialLimit: 0.5}
	switch p {
	case Chicago:
		base.BaseAngle = 0
		base.Spacing = 900
		base.AngleJitter = 0.02
		base.DiagonalFrac = 0.0
	case SanFrancisco:
		base.BaseAngle = 0.30 // SF's grid sits rotated against north
		base.Spacing = 800
		base.AngleJitter = 0.05
		base.DiagonalFrac = 0.01
	case Melbourne:
		base.BaseAngle = 0.12
		base.Spacing = 450
		base.AngleJitter = 0.08
		base.DiagonalFrac = 0.04
	case NewYork:
		base.BaseAngle = 0.50 // Manhattan's 29-degree tilt
		base.Spacing = 400
		base.AngleJitter = 0.10
		base.DiagonalFrac = 0.10
	default:
		return GenConfig{}, fmt.Errorf("roadnet: unknown preset %q", p)
	}
	return base, nil
}
