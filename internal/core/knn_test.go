package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

// unboundedKNN hides an index's SearchKNNWithin, so the manager probes it the
// way it probes any index it knows only as a model.KNNIndex: unbounded.
type unboundedKNN struct{ model.KNNIndex }

// TestKNNBoundShrinksSmallPartitionScan holds the point of the two-phase kNN
// probe: a small partition no longer searches for k neighbours of its own. On
// a three-partition manager whose outlier partition holds 2 % of the objects,
// the outlier pool's page accesses per kNN, probed within the first
// partition's k-th distance, are at most 0.6 (Bx-tree: 2.96 against 5.70, of
// which one each is the root) and at most 0.85 (TPR*-tree: 2.67 against 3.52)
// of the same calls probed unbounded — with identical answers.
func TestKNNBoundShrinksSmallPartitionScan(t *testing.T) {
	an := Analysis{Kind: KindDVA, Frames: []Frame{
		{Axis: geom.V(1, 0), Tau: 5}, {Axis: geom.V(0, 1), Tau: 5}, {IsOutlier: true},
	}}
	rng := rand.New(rand.NewSource(6))
	objs := make([]model.Object, 50000)
	for i := range objs {
		s := 20 + rng.Float64()*80
		vel := geom.V(s, rng.NormFloat64())
		switch {
		case i%50 == 0:
			vel = geom.V(s, float64(1-i%100/25)*s) // diagonal: far from both axes
		case i%2 == 0:
			vel = geom.V(rng.NormFloat64(), -s)
		}
		objs[i] = model.Object{ID: model.ObjectID(i + 1), Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000), Vel: vel}
	}
	for _, base := range []struct {
		name    string
		factory func(*storage.BufferPool) IndexFactory
		atMost  float64
	}{{"bx", bxFactory, 0.6}, {"tpr*", tprFactory, 0.85}} {
		t.Run(base.name, func(t *testing.T) {
			// build returns the manager and its outlier partition's pool.
			build := func(hideBound bool) (*Manager, *storage.BufferPool) {
				var outlier *storage.BufferPool
				m, err := NewManager(an, ManagerConfig{}, func(spec PartitionSpec) (model.Index, error) {
					pool := storage.NewBufferPool(storage.NewMemStore(), 1024)
					if spec.IsOutlier {
						outlier = pool
					}
					idx, err := base.factory(pool)(spec)
					if hideBound && err == nil {
						idx = unboundedKNN{idx.(model.KNNIndex)}
					}
					return idx, err
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.InsertBulk(objs); err != nil {
					t.Fatal(err)
				}
				return m, outlier
			}
			bounded, boundedPool := build(false)
			unbounded, unboundedPool := build(true)
			if n := bounded.Partitions()[2].Size; n != len(objs)/50 {
				t.Fatalf("outlier partition holds %d objects, want %d", n, len(objs)/50)
			}
			accesses := func(p *storage.BufferPool) int64 { s := p.Stats(); return s.Hits + s.Misses }
			b0, u0 := accesses(boundedPool), accesses(unboundedPool)
			const queries = 200
			for i := 0; i < queries; i++ {
				q := model.KNNQuery{Center: geom.V(rng.Float64()*100000, rng.Float64()*100000), K: 10, T: 60}
				got, err := bounded.SearchKNN(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := unbounded.SearchKNN(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("query %d: %d neighbours bounded, %d unbounded", i, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("query %d neighbour %d: %+v bounded, %+v unbounded", i, j, got[j], want[j])
					}
				}
			}
			b, u := float64(accesses(boundedPool)-b0)/queries, float64(accesses(unboundedPool)-u0)/queries
			t.Logf("outlier pool accesses per kNN: %.2f within the bound, %.2f unbounded (%.2f)", b, u, b/u)
			if b > base.atMost*u {
				t.Fatalf("outlier pool accesses per kNN: %.2f within the bound, %.2f unbounded; want at most %.2f of it", b, u, base.atMost)
			}
		})
	}
}
