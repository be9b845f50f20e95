package workload

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

func smallParams(ds Dataset) Params {
	p := DefaultParams(ds, 500)
	p.Duration = 60
	p.NumQueries = 20
	p.SampleSize = 300
	p.Domain = geom.R(0, 0, 20000, 20000)
	return p
}

func TestGeneratorInitialPopulation(t *testing.T) {
	for _, ds := range Datasets() {
		g, err := NewGenerator(smallParams(ds))
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		init := g.Initial()
		if len(init) != 500 {
			t.Fatalf("%s: %d objects", ds, len(init))
		}
		seen := map[model.ObjectID]bool{}
		for _, o := range init {
			if o.T != 0 {
				t.Fatalf("%s: initial reference time %g", ds, o.T)
			}
			if !g.Params().Domain.ContainsPoint(o.Pos) {
				t.Fatalf("%s: object outside domain", ds)
			}
			if o.Vel.Norm() > g.Params().MaxSpeed+1e-9 {
				t.Fatalf("%s: speed %g above max", ds, o.Vel.Norm())
			}
			if seen[o.ID] {
				t.Fatalf("%s: duplicate id %d", ds, o.ID)
			}
			seen[o.ID] = true
		}
	}
}

func TestUpdateStreamOrderedAndConsistent(t *testing.T) {
	g, err := NewGenerator(smallParams(Chicago))
	if err != nil {
		t.Fatal(err)
	}
	last := map[model.ObjectID]model.Object{}
	for _, o := range g.Initial() {
		last[o.ID] = o
	}
	prevT := 0.0
	count := 0
	maxUI := g.Params().MaxUpdateInterval
	for {
		ev, ok := g.NextUpdate()
		if !ok {
			break
		}
		count++
		if ev.T < prevT {
			t.Fatalf("stream out of order: %g after %g", ev.T, prevT)
		}
		prevT = ev.T
		if ev.T > g.Params().Duration {
			t.Fatalf("event beyond duration: %g", ev.T)
		}
		// Old record must be exactly the object's last reported state.
		want, ok := last[ev.Old.ID]
		if !ok {
			t.Fatalf("update for unknown object %d", ev.Old.ID)
		}
		if want != ev.Old {
			t.Fatalf("old record mismatch for %d:\n have %+v\n want %+v",
				ev.Old.ID, ev.Old, want)
		}
		// Continuity: new reference position on the old trajectory.
		if ev.New.Pos.DistTo(ev.Old.PosAt(ev.New.T)) > 1e-6*(1+ev.New.Pos.Norm()) {
			t.Fatal("discontinuous update")
		}
		if ev.New.T-ev.Old.T > maxUI+1e-9 {
			t.Fatalf("update gap %g exceeds max interval", ev.New.T-ev.Old.T)
		}
		last[ev.New.ID] = ev.New
	}
	if count == 0 {
		t.Fatal("no updates generated")
	}
	// Roughly: every object updates at least every maxUI; duration 60 =>
	// at least ~ n * duration/maxUI events for road data (far more since
	// edges are short).
	if count < 500*int(60/maxUI) {
		t.Fatalf("suspiciously few updates: %d", count)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, _ := NewGenerator(smallParams(SanFrancisco))
	g2, _ := NewGenerator(smallParams(SanFrancisco))
	u1 := g1.Updates()
	u2 := g2.Updates()
	if len(u1) != len(u2) {
		t.Fatalf("update counts differ: %d vs %d", len(u1), len(u2))
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	q1 := g1.Queries(10)
	q2 := g2.Queries(10)
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatal("queries differ")
		}
	}
}

func TestQueriesValid(t *testing.T) {
	g, _ := NewGenerator(smallParams(Melbourne))
	for _, q := range g.Queries(25) {
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
		if !q.IsCircle() {
			t.Fatal("default queries should be circular")
		}
		if math.Abs((q.T0-q.Now)-g.Params().PredictiveTime) > 1e-9 {
			t.Fatalf("predictive gap %g", q.T0-q.Now)
		}
	}
	p := smallParams(Melbourne)
	p.UseRectQueries = true
	g2, _ := NewGenerator(p)
	for _, q := range g2.Queries(5) {
		if q.IsCircle() {
			t.Fatal("rect workload produced circles")
		}
		if math.Abs(q.Rect.Width()-p.RectQuerySide) > 1e-9 {
			t.Fatalf("rect side %g", q.Rect.Width())
		}
	}
	for _, q := range g.IntervalQueries(5, 20) {
		if q.Kind != model.TimeInterval || q.T1-q.T0 != 20 {
			t.Fatalf("interval query wrong: %+v", q)
		}
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range g.MovingQueries(5, 20) {
		if q.Kind != model.MovingRange {
			t.Fatal("kind")
		}
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVelocitySampleSkew(t *testing.T) {
	// Chicago velocities must be concentrated near the two grid axes;
	// uniform velocities must not.
	alignedFrac := func(ds Dataset) float64 {
		g, err := NewGenerator(smallParams(ds))
		if err != nil {
			t.Fatal(err)
		}
		sample := g.VelocitySample(300)
		if len(sample) != 300 {
			t.Fatalf("sample size %d", len(sample))
		}
		aligned := 0
		for _, v := range sample {
			if v.Norm() == 0 {
				continue
			}
			d := v.Normalize()
			// Chicago's base angle is 0.
			if math.Abs(d.X) > math.Cos(10*math.Pi/180) || math.Abs(d.Y) > math.Cos(10*math.Pi/180) {
				aligned++
			}
		}
		return float64(aligned) / 300
	}
	ch := alignedFrac(Chicago)
	un := alignedFrac(Uniform)
	t.Logf("aligned: CH=%.2f uniform=%.2f", ch, un)
	if ch < 0.75 {
		t.Fatalf("Chicago sample should be axis-aligned: %.2f", ch)
	}
	if un > 0.5 {
		t.Fatalf("uniform sample too aligned: %.2f", un)
	}
}

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams(Chicago, 100000)
	if p.MaxSpeed != 100 || p.MaxUpdateInterval != 120 || p.Duration != 240 ||
		p.QueryRadius != 500 || p.PredictiveTime != 60 ||
		p.Domain != geom.R(0, 0, 100000, 100000) || p.SampleSize != 10000 {
		t.Fatalf("Table 1 defaults wrong: %+v", p)
	}
}

func TestUniformHasNoNetwork(t *testing.T) {
	g, err := NewGenerator(smallParams(Uniform))
	if err != nil {
		t.Fatal(err)
	}
	if g.Network() != nil {
		t.Fatal("uniform workload should have no network")
	}
	// Updates still flow and respect the interval.
	ev, ok := g.NextUpdate()
	if !ok {
		t.Fatal("no updates")
	}
	if ev.T <= 0 || ev.T > g.Params().Duration {
		t.Fatalf("bad event time %g", ev.T)
	}
}

// Updates materializes the entire update stream (test scale only).
func (g *Generator) Updates() []UpdateEvent {
	var out []UpdateEvent
	for {
		ev, ok := g.NextUpdate()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}
