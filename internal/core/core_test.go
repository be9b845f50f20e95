package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/analysis/cluster"
	"repro/internal/bxtree"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/tprtree"
)

// sfLikeSample synthesizes velocity points with two DVAs plus outliers,
// mirroring the San Francisco distribution of Fig. 1(b).
func sfLikeSample(n int, ang1, ang2, jitter, outlierFrac float64, seed int64) []geom.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec2, n)
	for i := range pts {
		if rng.Float64() < outlierFrac {
			pts[i] = geom.V(rng.Float64()*200-100, rng.Float64()*200-100)
			continue
		}
		ang := ang1
		if rng.Intn(2) == 1 {
			ang = ang2
		}
		d := geom.V(math.Cos(ang), math.Sin(ang))
		speed := 20 + rng.Float64()*80
		if rng.Intn(2) == 0 {
			speed = -speed
		}
		pts[i] = d.Scale(speed).Add(d.Perp().Scale(rng.NormFloat64() * jitter))
	}
	return pts
}

func axisAngleDiff(a, b geom.Vec2) float64 {
	cos := math.Abs(a.Normalize().Dot(b.Normalize()))
	if cos > 1 {
		cos = 1
	}
	return math.Acos(cos)
}

func TestAnalyzeFindsDVAsAndTau(t *testing.T) {
	sample := sfLikeSample(10000, 0, math.Pi/2, 2.0, 0.05, 1)
	an, err := Analyze(sample, AnalyzerConfig{K: 2, Cluster: cluster.Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if an.Kind != KindDVA || len(an.Frames) != 3 || an.SampleSize != 10000 {
		t.Fatalf("analysis: %+v", an)
	}
	if !an.Frames[len(an.Frames)-1].IsOutlier {
		t.Fatal("last frame should be the outlier frame")
	}
	if err := an.Validate(); err != nil {
		t.Fatalf("analysis invalid: %v", err)
	}
	for _, want := range []geom.Vec2{{X: 1, Y: 0}, {X: 0, Y: 1}} {
		found := false
		for _, d := range an.Frames {
			if d.IsOutlier {
				continue
			}
			if axisAngleDiff(d.Axis, want) < 0.05 {
				found = true
				// Tau should be a few jitter sigmas: > 1, well below the
				// outlier speeds (~100).
				if d.Tau < 1 || d.Tau > 40 {
					t.Fatalf("tau = %g out of plausible band", d.Tau)
				}
				if d.Dominance < 0.99 {
					t.Fatalf("post-cleanup dominance %g too low", d.Dominance)
				}
			}
		}
		if !found {
			t.Fatalf("axis %v not found", want)
		}
	}
	if an.TotalOutliers == 0 {
		t.Fatal("expected some outliers with 5% uniform noise")
	}
	if an.TotalOutliers > an.SampleSize/3 {
		t.Fatalf("too many outliers: %d", an.TotalOutliers)
	}
	if an.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze([]geom.Vec2{{X: 1}}, AnalyzerConfig{K: 2}); err == nil {
		t.Fatal("tiny sample accepted")
	}
}

func TestOptimalTauMatchesExhaustiveSearch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(300)
		perp := make([]float64, n)
		for i := range perp {
			// Mixture: mostly small, some large.
			if rng.Float64() < 0.8 {
				perp[i] = math.Abs(rng.NormFloat64()) * 3
			} else {
				perp[i] = rng.Float64() * 100
			}
		}
		got := OptimalTau(perp)
		gotCost := TauCost(perp, got)
		// Exhaustive sweep over the same candidate set.
		vymax := 0.0
		for _, v := range perp {
			if v > vymax {
				vymax = v
			}
		}
		best := math.Inf(1)
		for b := 1; b <= tauBuckets; b++ {
			c := TauCost(perp, vymax*float64(b)/tauBuckets)
			if c < best {
				best = c
			}
		}
		return gotCost <= best+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalTauEdgeCases(t *testing.T) {
	if got := OptimalTau(nil); got != 0 {
		t.Fatalf("empty input tau = %g", got)
	}
	if got := OptimalTau([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("all-zero tau = %g", got)
	}
	// Bimodal: many near zero, few at 100 -> tau should cut below 100.
	perp := make([]float64, 0, 1000)
	for i := 0; i < 950; i++ {
		perp = append(perp, float64(i%5))
	}
	for i := 0; i < 50; i++ {
		perp = append(perp, 100)
	}
	tau := OptimalTau(perp)
	if tau >= 100 || tau < 4 {
		t.Fatalf("bimodal tau = %g, want in [4, 100)", tau)
	}
}

// --- manager integration -------------------------------------------------------

// factories for both base index types over one shared pool.
func tprFactory(pool *storage.BufferPool) IndexFactory {
	return func(spec PartitionSpec) (model.Index, error) {
		return tprtree.NewTree(pool, tprtree.Config{})
	}
}

func bxFactory(pool *storage.BufferPool) IndexFactory {
	return func(spec PartitionSpec) (model.Index, error) {
		return bxtree.NewTree(pool, bxtree.Config{Domain: spec.Domain})
	}
}

// roadObjects synthesizes objects moving along two road axes plus outliers.
func roadObjects(n int, rng *rand.Rand) []model.Object {
	objs := make([]model.Object, n)
	for i := range objs {
		var vel geom.Vec2
		switch {
		case rng.Float64() < 0.05: // outlier
			vel = geom.V(rng.Float64()*200-100, rng.Float64()*200-100)
		case rng.Intn(2) == 0:
			s := 20 + rng.Float64()*80
			if rng.Intn(2) == 0 {
				s = -s
			}
			vel = geom.V(s, rng.NormFloat64()*2)
		default:
			s := 20 + rng.Float64()*80
			if rng.Intn(2) == 0 {
				s = -s
			}
			vel = geom.V(rng.NormFloat64()*2, s)
		}
		objs[i] = model.Object{
			ID:  model.ObjectID(i + 1),
			Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: vel,
			T:   0,
		}
	}
	return objs
}

func newManager(t *testing.T, factory IndexFactory, sample []geom.Vec2) *Manager {
	t.Helper()
	an, err := Analyze(sample, AnalyzerConfig{K: 2, Cluster: cluster.Options{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(an, ManagerConfig{}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameIDs(t *testing.T, got, want []model.ObjectID, context string) {
	t.Helper()
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", context, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d: %d vs %d", context, i, got[i], want[i])
		}
	}
}

func TestManagerAgainstOracleBothBases(t *testing.T) {
	for name, mk := range map[string]func(*storage.BufferPool) IndexFactory{
		"tpr": tprFactory, "bx": bxFactory,
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			pool := storage.NewBufferPool(storage.NewMemStore(), 500)
			objs := roadObjects(2500, rng)
			sample := make([]geom.Vec2, len(objs))
			for i, o := range objs {
				sample[i] = o.Vel
			}
			m := newManager(t, mk(pool), sample)
			oracle := model.NewBruteForce()
			for _, o := range objs {
				if err := m.Insert(o); err != nil {
					t.Fatal(err)
				}
				_ = oracle.Insert(o)
			}
			if m.Len() != oracle.Len() {
				t.Fatalf("len %d vs %d", m.Len(), oracle.Len())
			}
			// Partition sizes: both DVA partitions should hold real shares.
			parts := m.Partitions()
			if len(parts) != 3 {
				t.Fatalf("partitions = %d", len(parts))
			}
			for i, p := range parts[:2] {
				if p.Size < len(objs)/5 {
					t.Fatalf("partition %d only has %d objects", i, p.Size)
				}
			}
			for trial := 0; trial < 40; trial++ {
				c := geom.V(rng.Float64()*100000, rng.Float64()*100000)
				t0 := rng.Float64() * 60
				t1 := t0 + rng.Float64()*60
				queries := []model.RangeQuery{
					{Kind: model.TimeSlice, Rect: geom.RectFromCenter(c, 3000, 3000), Now: 0, T0: t0},
					{Kind: model.TimeSlice, Circle: geom.Circle{C: c, R: 2500}, Now: 0, T0: t0},
					{Kind: model.TimeInterval, Rect: geom.RectFromCenter(c, 2000, 2000), Now: 0, T0: t0, T1: t1},
					{Kind: model.MovingRange, Rect: geom.RectFromCenter(c, 2000, 2000),
						Vel: geom.V(rng.Float64()*100-50, rng.Float64()*100-50), Now: 0, T0: t0, T1: t1},
				}
				for _, q := range queries {
					got, err := m.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := oracle.Search(q)
					sameIDs(t, got, want, name+" "+q.Kind.String())
				}
			}
		})
	}
}

func TestManagerUpdateMigratesPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := storage.NewBufferPool(storage.NewMemStore(), 500)
	sample := sfLikeSample(5000, 0, math.Pi/2, 2.0, 0.03, 3)
	m := newManager(t, tprFactory(pool), sample)

	// Insert an x-mover; it must land in the x DVA partition.
	o := model.Object{ID: 1, Pos: geom.V(5000, 5000), Vel: geom.V(80, 0.5), T: 0}
	if err := m.Insert(o); err != nil {
		t.Fatal(err)
	}
	partOf := func(id model.ObjectID) int {
		st := &m.stripes[m.stripeIndex(id)]
		st.mu.RLock()
		defer st.mu.RUnlock()
		return st.objs[id].part
	}
	p0 := partOf(1)
	if m.pars[p0].spec.IsOutlier {
		t.Fatal("x-mover landed in outlier partition")
	}
	// Turn the object 90 degrees: it must migrate to the other DVA.
	turned := model.Object{ID: 1, Pos: o.PosAt(30), Vel: geom.V(0.5, 80), T: 30}
	if err := m.Update(o, turned); err != nil {
		t.Fatal(err)
	}
	p1 := partOf(1)
	if p1 == p0 {
		t.Fatal("update did not migrate between DVA partitions")
	}
	if m.pars[p1].spec.IsOutlier {
		t.Fatal("y-mover landed in outlier partition")
	}
	// Turn it diagonal: should land in the outlier partition.
	diag := model.Object{ID: 1, Pos: turned.PosAt(60), Vel: geom.V(60, 60), T: 60}
	if err := m.Update(turned, diag); err != nil {
		t.Fatal(err)
	}
	if !m.pars[partOf(1)].spec.IsOutlier {
		t.Fatal("diagonal mover not routed to outlier partition")
	}
	// And the object remains queryable through it all.
	ids, err := m.Search(model.RangeQuery{
		Kind: model.TimeSlice,
		Rect: geom.RectFromCenter(diag.PosAt(70), 100, 100),
		Now:  60, T0: 70,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("object lost after migrations: %v", ids)
	}
	_ = rng
}

func TestManagerDeleteAndErrors(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemStore(), 200)
	sample := sfLikeSample(2000, 0, math.Pi/2, 2.0, 0, 4)
	m := newManager(t, bxFactory(pool), sample)
	o := model.Object{ID: 7, Pos: geom.V(100, 100), Vel: geom.V(50, 0), T: 0}
	if err := m.Delete(o); !errors.Is(err, model.ErrNotFound) {
		t.Fatalf("delete absent: %v", err)
	}
	if err := m.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(o); !errors.Is(err, model.ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := m.Update(o, model.Object{ID: 8}); err == nil {
		t.Fatal("id-changing update accepted")
	}
	if err := m.Delete(o); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatal("len after delete")
	}
	if err := m.Update(o, o); !errors.Is(err, model.ErrNotFound) {
		t.Fatalf("update absent: %v", err)
	}
}

// TestManagerTauOverrideAndRefresh: a manager routes by the tau of the
// analysis it was built from, and a fresh analysis of the live population —
// the repartition round, Section 5.5's refresh — brings the DVA partitions
// back into use.
func TestManagerTauOverrideAndRefresh(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemStore(), 200)
	sample := sfLikeSample(3000, 0, math.Pi/2, 2.0, 0.05, 5)
	an, err := Analyze(sample, AnalyzerConfig{K: 2, Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// With tau forced to 0, everything lands in the outlier partition.
	an.Frames[0].Tau, an.Frames[1].Tau = 0, 0
	m, err := NewManager(an, ManagerConfig{}, tprFactory(pool))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i, o := range roadObjects(400, rng) {
		o.ID = model.ObjectID(i + 1)
		// Give every object some jitter so perp distance > 0.
		o.Vel = o.Vel.Add(geom.V(0.001, 0.001))
		if err := m.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	parts := m.Partitions()
	if outlier := parts[len(parts)-1]; outlier.Size != 400 {
		t.Fatalf("tau=0 should route all to outlier, got %d there", outlier.Size)
	}
	for i, p := range parts {
		if p.Tau != 0 {
			t.Fatalf("partition %d reports tau %g, want the analysis' 0", i, p.Tau)
		}
	}
	// Refresh: re-analyze the live velocities and move the population into a
	// manager built from the result.
	objs := m.Objects()
	vels := make([]geom.Vec2, len(objs))
	for i, o := range objs {
		vels[i] = o.Vel
	}
	fresh, err := Analyze(vels, AnalyzerConfig{K: 2, Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(fresh, ManagerConfig{}, tprFactory(pool))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.InsertBulk(objs); err != nil {
		t.Fatal(err)
	}
	parts = m2.Partitions()
	if parts[0].Tau == 0 && parts[1].Tau == 0 {
		t.Fatal("re-analysis left tau at 0")
	}
	if parts[0].Size+parts[1].Size == 0 {
		t.Fatal("no objects in DVA partitions after the re-analysis")
	}
}

// TestManagerRoutesByAnalysis: the manager places every record where the
// analysis' own router (Analysis.RouteVel) sends it — under DVA, speed and
// unpartitioned analyses, for records exactly on a tau or band threshold,
// standing still or moving along an axis — after a bulk load and again after
// every record changed velocity.
func TestManagerRoutesByAnalysis(t *testing.T) {
	const tau0, tau1 = 2.5, 4
	dva := Analysis{Kind: KindDVA, Frames: []Frame{
		{Axis: geom.V(1, 0), Tau: tau0}, {Axis: geom.V(0, 1), Tau: tau1}, {IsOutlier: true},
	}}
	// A perpendicular distance of exactly tau stays in the DVA partition
	// (Analyze sheds only perp > tau).
	if dva.RouteVel(geom.V(40, tau0)) != 0 || dva.RouteVel(geom.V(tau1, -40)) != 1 ||
		dva.RouteVel(geom.V(40, math.Nextafter(tau0, 10))) != 2 {
		t.Fatal("RouteVel does not retain perp == tau in the DVA partition")
	}
	sample := sfLikeSample(3000, 0.3, 0.3+math.Pi/2, 2.0, 0.05, 8)
	analyzed, err := Analyze(sample, AnalyzerConfig{K: 2, Cluster: cluster.Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	speed, err := SpeedPartitioner{Bands: 2}.Analyze(sample)
	if err != nil {
		t.Fatal(err)
	}
	none, _ := NonePartitioner{}.Analyze(sample)
	cut := speed.Frames[0].SpeedMax

	vels := []geom.Vec2{
		{}, geom.V(60, 0), geom.V(-60, 0), geom.V(0, 60), geom.V(0, -60),
		geom.V(40, tau0), geom.V(40, -tau0), geom.V(tau1, 40), geom.V(-tau1, 40),
		geom.V(40, math.Nextafter(tau0, 10)), geom.V(30, 30),
		geom.V(cut, 0), geom.V(0, -cut), geom.V(math.Nextafter(cut, 0), 0),
	}
	for _, f := range analyzed.Frames[:2] {
		perp := f.Axis.Perp().Normalize()
		vels = append(vels, f.Axis.Scale(50), f.Axis.Scale(50).Add(perp.Scale(f.Tau)))
	}
	vels = append(vels, sample[:200]...)
	objs := make([]model.Object, len(vels))
	for i, v := range vels {
		objs[i] = model.Object{ID: model.ObjectID(i + 1), Pos: geom.V(float64(i%50)*1000, float64(i/50)*1000), Vel: v}
	}

	for name, an := range map[string]Analysis{"dva": dva, "dva-analyzed": analyzed, "speed": speed, "none": none} {
		t.Run(name, func(t *testing.T) {
			m, err := NewManager(an, ManagerConfig{}, bxFactory(storage.NewBufferPool(storage.NewMemStore(), 100)))
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string, objs []model.Object) {
				t.Helper()
				want := make([]int, len(an.Frames))
				for _, o := range objs {
					want[an.RouteVel(o.Vel)]++
				}
				parts := m.Partitions()
				if len(parts) != len(want) {
					t.Fatalf("%s: %d partitions, analysis has %d frames", when, len(parts), len(want))
				}
				for i, p := range parts {
					if p.Size != want[i] {
						t.Fatalf("%s: partition %d holds %d, RouteVel sends %d", when, i, p.Size, want[i])
					}
					if p.Tau != an.Frames[i].Tau {
						t.Fatalf("%s: partition %d reports tau %g, analysis has %g", when, i, p.Tau, an.Frames[i].Tau)
					}
				}
			}
			if err := m.InsertBulk(objs); err != nil {
				t.Fatal(err)
			}
			check("after InsertBulk", objs)
			// Turn every record 90 degrees: it migrates where RouteVel sends
			// its new velocity.
			turned := make([]model.Object, len(objs))
			for i, o := range objs {
				turned[i] = model.Object{ID: o.ID, Pos: o.PosAt(10), Vel: geom.V(-o.Vel.Y, o.Vel.X), T: 10}
				if err := m.Update(o, turned[i]); err != nil {
					t.Fatal(err)
				}
			}
			check("after Update", turned)
		})
	}
}

func TestManagerVPBeatsUnpartitionedOnSkewedData(t *testing.T) {
	// The headline claim, in miniature: on two-axis data, query I/O through
	// the VP-partitioned TPR* should be lower than through the
	// unpartitioned TPR*.
	rng := rand.New(rand.NewSource(12))
	objs := roadObjects(8000, rng)
	sample := make([]geom.Vec2, len(objs))
	for i, o := range objs {
		sample[i] = o.Vel
	}

	queryIO := func(idx model.Index, pool *storage.BufferPool) int64 {
		qrng := rand.New(rand.NewSource(77))
		before := pool.Stats().Misses
		for i := 0; i < 60; i++ {
			c := geom.V(qrng.Float64()*100000, qrng.Float64()*100000)
			_, err := idx.Search(model.RangeQuery{
				Kind: model.TimeSlice,
				Circle: geom.Circle{
					C: c, R: 500,
				},
				Now: 0, T0: 60,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return pool.Stats().Misses - before
	}

	poolU := storage.NewBufferPool(storage.NewMemStore(), 50)
	flat, err := tprtree.NewTree(poolU, tprtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := flat.Insert(o); err != nil {
			t.Fatal(err)
		}
	}

	poolP := storage.NewBufferPool(storage.NewMemStore(), 50)
	m := newManager(t, tprFactory(poolP), sample)
	for _, o := range objs {
		if err := m.Insert(o); err != nil {
			t.Fatal(err)
		}
	}

	flatIO := queryIO(flat, poolU)
	vpIO := queryIO(m, poolP)
	t.Logf("unpartitioned TPR* I/O: %d, VP TPR* I/O: %d", flatIO, vpIO)
	if vpIO >= flatIO {
		t.Fatalf("VP (%d) should beat unpartitioned (%d) on skewed data", vpIO, flatIO)
	}
}

func TestManagerConfigDefaults(t *testing.T) {
	c := ManagerConfig{}.withDefaults()
	if c.Domain.Area() == 0 || c.Stripes != 1 || tauBuckets != 100 {
		t.Fatalf("defaults: %+v, %d tau buckets", c, tauBuckets)
	}
}

func TestManagerConcurrentSearchDuringUpdates(t *testing.T) {
	// Section 5.3 raises the locking concern: a query racing an update
	// that migrates an object between partitions must never observe the
	// object as missing. Hammer the manager with concurrent searches and
	// partition-migrating updates under the race detector.
	pool := storage.NewBufferPool(storage.NewMemStore(), 200)
	sample := sfLikeSample(3000, 0, math.Pi/2, 2.0, 0.02, 21)
	m := newManager(t, tprFactory(pool), sample)

	const nObjs = 200
	objs := make([]model.Object, nObjs)
	for i := range objs {
		objs[i] = model.Object{
			ID:  model.ObjectID(i + 1),
			Pos: geom.V(float64(i)*400, float64(i)*400),
			Vel: geom.V(60, 0.1),
			T:   0,
		}
		if err := m.Insert(objs[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 4)

	// Updater: repeatedly rotate every object's velocity by 90 degrees so
	// each update migrates it between the two DVA partitions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := append([]model.Object(nil), objs...)
		now := 0.0
		for round := 0; round < 20; round++ {
			now += 5
			for i := range cur {
				upd := cur[i]
				upd.Pos = upd.PosAt(now)
				upd.Vel = geom.V(-upd.Vel.Y, upd.Vel.X) // 90-degree turn
				upd.T = now
				if err := m.Update(cur[i], upd); err != nil {
					errCh <- err
					return
				}
				cur[i] = upd
			}
		}
		close(stop)
	}()

	// Searchers: every object must be found by a full-domain query at all
	// times (updates hold the manager lock across the whole migration).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Whole-domain query: at t=1e4 every object (speed <= ~100)
				// is within +-1.2e6 of its reference position.
				ids, err := m.Search(model.RangeQuery{
					Kind: model.TimeSlice,
					Rect: geom.R(-5e6, -5e6, 5e6, 5e6),
					Now:  1e4, T0: 1e4,
				})
				if err != nil {
					errCh <- err
					return
				}
				if len(ids) != nObjs {
					errCh <- fmt.Errorf("query observed %d of %d objects", len(ids), nObjs)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestManagerReportUpserts(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemStore(), 200)
	sample := sfLikeSample(2000, 0, math.Pi/2, 2.0, 0, 4)
	m := newManager(t, bxFactory(pool), sample)

	// Report on a fresh ID inserts.
	o := model.Object{ID: 1, Pos: geom.V(1000, 1000), Vel: geom.V(40, 0.5), T: 0}
	if err := m.Report(o); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("len after first report: %d", m.Len())
	}
	// Report on a known ID replaces, migrating partitions with the velocity.
	turned := model.Object{ID: 1, Pos: geom.V(1400, 1005), Vel: geom.V(0.5, 40), T: 10}
	if err := m.Report(turned); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("len after upsert: %d", m.Len())
	}
	if got, _ := m.Get(1); got != turned {
		t.Fatalf("record after upsert: %+v", got)
	}

	// Batch: a mix of new IDs and upserts of ID 1, applied atomically under
	// one lock acquisition.
	batch := []model.Object{
		{ID: 2, Pos: geom.V(2000, 2000), Vel: geom.V(-35, 0), T: 10},
		{ID: 1, Pos: geom.V(1400, 1400), Vel: geom.V(38, 1), T: 12},
		{ID: 3, Pos: geom.V(3000, 3000), Vel: geom.V(0, -42), T: 12},
	}
	applied, err := m.ReportBatch(batch)
	if err != nil || applied != len(batch) {
		t.Fatalf("batch: applied %d err %v", applied, err)
	}
	if m.Len() != 3 {
		t.Fatalf("len after batch: %d", m.Len())
	}
	ids, err := m.Search(model.RangeQuery{
		Kind: model.TimeSlice, Rect: geom.R(0, 0, 10000, 10000), Now: 12, T0: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("search after batch: %v", ids)
	}

	// InsertBulk rejects duplicates with the typed sentinel.
	if err := m.InsertBulk([]model.Object{{ID: 9, Vel: geom.V(30, 0)}, {ID: 2}}); !errors.Is(err, model.ErrDuplicate) {
		t.Fatalf("bulk duplicate: %v", err)
	}
	// ...but loads disjoint populations fine.
	fresh := make([]model.Object, 50)
	for i := range fresh {
		fresh[i] = model.Object{
			ID:  model.ObjectID(100 + i),
			Pos: geom.V(float64(i)*100, float64(i)*100),
			Vel: geom.V(45, float64(i%3)),
			T:   12,
		}
	}
	if err := m.InsertBulk(fresh); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3+1+50 {
		t.Fatalf("len after bulk: %d", m.Len())
	}
}

// TestManagerObjectsSnapshot covers the migration surface used by the
// Store's repartition swap.
func TestManagerObjectsSnapshot(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemStore(), 200)
	m := newManager(t, bxFactory(pool), sfLikeSample(1000, 0, math.Pi/2, 2.0, 0, 4))
	rng := rand.New(rand.NewSource(3))
	objs := roadObjects(120, rng)
	if err := m.InsertBulk(objs); err != nil {
		t.Fatal(err)
	}
	snap := m.Objects()
	if len(snap) != len(objs) {
		t.Fatalf("snapshot %d objects, want %d", len(snap), len(objs))
	}
	byID := make(map[model.ObjectID]model.Object, len(snap))
	for _, o := range snap {
		byID[o.ID] = o
	}
	for _, o := range objs {
		if got, ok := byID[o.ID]; !ok || got != o {
			t.Fatalf("object %d: snapshot %+v, want %+v", o.ID, got, o)
		}
	}
}

// TestVelocitySample pins the analysis sample: the live objects' current
// velocities in ObjectID order, whatever order, batching or stripe count
// built the table; n evenly spaced picks of a larger population; and no
// removed object.
func TestVelocitySample(t *testing.T) {
	objs := roadObjects(120, rand.New(rand.NewSource(5)))
	build := func(stripes int) *Manager {
		an, _ := NonePartitioner{}.Analyze(nil)
		m, err := NewManager(an, ManagerConfig{Stripes: stripes}, bxFactory(storage.NewBufferPool(storage.NewMemStore(), 100)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	inOrder := build(1)
	if _, err := inOrder.ReportBatch(objs); err != nil {
		t.Fatal(err)
	}
	// The other table sees every object first with a stale velocity, then the
	// current one in reverse order and in batches of 7.
	shuffled := build(4)
	for _, o := range objs {
		o.Vel = o.Vel.Scale(-3)
		if err := shuffled.Report(o); err != nil {
			t.Fatal(err)
		}
	}
	rev := slices.Clone(objs)
	slices.Reverse(rev)
	for len(rev) > 0 {
		n := min(7, len(rev))
		if _, err := shuffled.ReportBatch(rev[:n]); err != nil {
			t.Fatal(err)
		}
		rev = rev[n:]
	}
	vels := func(objs []model.Object) []geom.Vec2 {
		out := make([]geom.Vec2, len(objs))
		for i, o := range objs {
			out[i] = o.Vel
		}
		return out
	}
	all := vels(objs) // roadObjects numbers its objects 1..n in order
	for _, n := range []int{50, 120, 500} {
		a, b := inOrder.VelocitySample(n), shuffled.VelocitySample(n)
		if !slices.Equal(a, b) {
			t.Fatalf("n=%d: samples differ between the two tables", n)
		}
		want := all
		if n < len(all) {
			want = make([]geom.Vec2, n)
			for i := range want {
				want[i] = all[i*len(all)/n]
			}
		}
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d: sample of %d velocities is not the %d evenly spaced picks in id order", n, len(a), len(want))
		}
	}

	removed := objs[59]
	if err := shuffled.Delete(removed); err != nil {
		t.Fatal(err)
	}
	want := vels(slices.Delete(slices.Clone(objs), 59, 60))
	if got := shuffled.VelocitySample(500); !slices.Equal(got, want) {
		t.Fatalf("sample after removing object %d: %d velocities, want the other %d", removed.ID, len(got), len(want))
	}
}

// TauCost evaluates the Eq. 10 objective for a specific tau over the given
// perpendicular speeds: the reference the OptimalTau property test checks
// the bucketed optimum against.
func TauCost(perpSpeeds []float64, tau float64) float64 {
	vymax := 0.0
	for _, v := range perpSpeeds {
		if v > vymax {
			vymax = v
		}
	}
	nd := 0
	for _, v := range perpSpeeds {
		if v <= tau {
			nd++
		}
	}
	return float64(nd) * (tau - vymax)
}
