package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

func testDomain() geom.Rect { return geom.R(0, 0, 20000, 20000) }

func TestGenerateBasics(t *testing.T) {
	net, err := Generate(GenConfig{Domain: testDomain(), Spacing: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) < 100 {
		t.Fatalf("too few nodes: %d", len(net.Nodes))
	}
	if net.NumEdges() < len(net.Nodes) {
		t.Fatalf("grid should have ~2 edges per node: %d nodes, %d edges",
			len(net.Nodes), net.NumEdges())
	}
	// All nodes in domain.
	for _, n := range net.Nodes {
		if !testDomain().ContainsPoint(n.Pos) {
			t.Fatalf("node outside domain: %v", n.Pos)
		}
	}
	// Adjacency symmetric.
	for a, adj := range net.Adj {
		for _, e := range adj {
			found := false
			for _, back := range net.Adj[e.To] {
				if back.To == NodeID(a) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing reverse", a, e.To)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(GenConfig{Domain: testDomain(), Spacing: 600, Seed: 9})
	b, _ := Generate(GenConfig{Domain: testDomain(), Spacing: 600, Seed: 9})
	if len(a.Nodes) != len(b.Nodes) || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different networks")
	}
	for i := range a.Nodes {
		if a.Nodes[i].Pos != b.Nodes[i].Pos {
			t.Fatal("node positions differ")
		}
	}
}

func TestGenerateEmptyDomainFails(t *testing.T) {
	_, err := Generate(GenConfig{Domain: geom.R(0, 0, 10, 10), Spacing: 50000})
	if err == nil {
		t.Fatal("degenerate network accepted")
	}
}

func TestPresetConfigs(t *testing.T) {
	for _, p := range []Preset{Chicago, SanFrancisco, Melbourne, NewYork} {
		cfg, err := PresetConfig(p, testDomain(), 3)
		if err != nil {
			t.Fatal(err)
		}
		net, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(net.Nodes) == 0 {
			t.Fatalf("%s: empty", p)
		}
	}
	if _, err := PresetConfig("XX", testDomain(), 0); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPresetDensityOrdering(t *testing.T) {
	// MEL and NY must be denser (more nodes => more updates) than CH/SA,
	// matching the paper's description of the four networks.
	counts := map[Preset]int{}
	for _, p := range []Preset{Chicago, SanFrancisco, Melbourne, NewYork} {
		cfg, _ := PresetConfig(p, testDomain(), 5)
		net, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts[p] = len(net.Nodes)
	}
	if counts[Melbourne] <= counts[Chicago] || counts[Melbourne] <= counts[SanFrancisco] {
		t.Fatalf("MEL should be denser: %v", counts)
	}
	if counts[NewYork] <= counts[Chicago] || counts[NewYork] <= counts[SanFrancisco] {
		t.Fatalf("NY should be denser: %v", counts)
	}
}

// directionSkew measures what fraction of sampled edge directions lie
// within tol radians of the two dominant axes of the preset grid.
func directionSkew(t *testing.T, p Preset, tol float64) float64 {
	t.Helper()
	cfg, _ := PresetConfig(p, testDomain(), 11)
	net, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := geom.V(math.Cos(cfg.BaseAngle), math.Sin(cfg.BaseAngle))
	v := u.Perp()
	aligned, total := 0, 0
	for a, adj := range net.Adj {
		pa := net.Nodes[a].Pos
		for _, e := range adj {
			d := net.Nodes[e.To].Pos.Sub(pa).Normalize()
			total++
			for _, axis := range []geom.Vec2{u, v} {
				if math.Abs(d.Dot(axis)) > math.Cos(tol) {
					aligned++
					break
				}
			}
		}
	}
	return float64(aligned) / float64(total)
}

func TestPresetSkewOrdering(t *testing.T) {
	// Velocity-direction skew: CH >= SA >= NY (the paper: "the CH road
	// network's velocity distribution is the most skewed, followed by the
	// SA, the MEL and the NY").
	tol := 8 * math.Pi / 180
	ch := directionSkew(t, Chicago, tol)
	sa := directionSkew(t, SanFrancisco, tol)
	mel := directionSkew(t, Melbourne, tol)
	ny := directionSkew(t, NewYork, tol)
	t.Logf("skew: CH=%.3f SA=%.3f MEL=%.3f NY=%.3f", ch, sa, mel, ny)
	if !(ch >= sa && sa >= mel && mel >= ny) {
		t.Fatalf("skew ordering violated: CH=%.3f SA=%.3f MEL=%.3f NY=%.3f", ch, sa, mel, ny)
	}
	if ch < 0.9 {
		t.Fatalf("Chicago should be nearly perfectly aligned, got %.3f", ch)
	}
}

func TestTravelerPiecewiseLinear(t *testing.T) {
	cfg, _ := PresetConfig(Chicago, testDomain(), 2)
	net, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	tr := NewTraveler(net, 1, rng, 100, false, testDomain(), 0)
	prev := tr.State()
	if prev.T != 0 {
		t.Fatal("initial reference time should be 0")
	}
	const maxUI = 30.0
	for step := 0; step < 500; step++ {
		next, tm := tr.NextEvent(maxUI)
		if tm < prev.T {
			t.Fatalf("time went backwards: %g -> %g", prev.T, tm)
		}
		if tm-prev.T > maxUI+1e-9 {
			t.Fatalf("update interval %g exceeds max %g", tm-prev.T, maxUI)
		}
		// Continuity: the new reference position must be where the old
		// trajectory put the object at the event time.
		want := prev.PosAt(tm)
		if next.Pos.DistTo(want) > 1e-6*(1+want.Norm()) {
			t.Fatalf("step %d: trajectory discontinuity: %v vs %v", step, next.Pos, want)
		}
		if next.T != tm {
			t.Fatal("event time and reference time disagree")
		}
		if next.Vel.Norm() > 100+1e-9 {
			t.Fatalf("speed %g exceeds max", next.Vel.Norm())
		}
		prev = next
	}
}

func TestTravelerOffRoadStaysInDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := NewTraveler(nil, 2, rng, 50, true, testDomain(), 0)
	prev := tr.State()
	// The linear-motion contract forbids clamping positions, so legs may
	// overshoot the boundary by at most one leg's travel (speed cap 50 x
	// max leg 50 ts = 2500 m) before the bounce turns them around.
	bound := testDomain().Expand(2500 + 1)
	for step := 0; step < 300; step++ {
		next, tm := tr.NextEvent(60)
		if !bound.ContainsPoint(next.Pos) {
			t.Fatalf("off-road reference position escaped: %v", next.Pos)
		}
		if tm-prev.T > 60+1e-9 {
			t.Fatal("max update interval violated")
		}
		prev = next
	}
}

func TestTravelerSpeedCapRespected(t *testing.T) {
	cfg, _ := PresetConfig(NewYork, testDomain(), 6)
	net, _ := Generate(cfg)
	for i := 0; i < 50; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		tr := NewTraveler(net, model.ObjectID(i), rng, 80, i%5 == 0, testDomain(), 0)
		if tr.State().Vel.Norm() > 80+1e-9 {
			t.Fatalf("initial speed %g exceeds cap", tr.State().Vel.Norm())
		}
		for s := 0; s < 50; s++ {
			next, _ := tr.NextEvent(40)
			if next.Vel.Norm() > 80+1e-9 {
				t.Fatalf("speed %g exceeds cap", next.Vel.Norm())
			}
		}
	}
}
