package vpindex_test

import (
	"fmt"
	"math/rand"

	vpindex "repro"
)

// ExampleOpen demonstrates the production Store API: open with online
// auto-partitioning, stream ID-keyed location reports (the bootstrap fires
// mid-stream and migrates the live population), and ask predictive queries.
func ExampleOpen() {
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.TPRStar),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithAutoPartition(1000),
		vpindex.WithSeed(42),
	)
	if err != nil {
		panic(err)
	}

	// Devices report bare position/velocity records; Report upserts by ID.
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 1200; i++ {
		speed := 30 + rng.Float64()*50
		vel := vpindex.V(speed, rng.NormFloat64())
		if i%2 == 0 {
			vel = vpindex.V(rng.NormFloat64(), -speed)
		}
		o := vpindex.Object{
			ID:  vpindex.ObjectID(i),
			Pos: vpindex.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: vel,
			T:   0,
		}
		if err := store.Report(o); err != nil {
			panic(err)
		}
	}
	// The 1000th report triggered the DVA analysis and live migration.
	fmt.Println("partitioned:", store.Partitioned())
	fmt.Println("partitions:", len(store.Partitions())) // 2 DVAs + outlier

	// An eastbound car updates its location — same verb, no old record.
	_ = store.Report(vpindex.Object{ID: 7, Pos: vpindex.V(1000, 500), Vel: vpindex.V(50, 0), T: 0})

	// Who is within 100 m of (3500, 500) at time 50? (Car 7 will be at
	// x = 1000 + 50*50 = 3500.)
	ids, _ := store.Search(vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(3500, 500), R: 100}, 0, 50))
	fmt.Println("hits:", ids)

	// Output:
	// partitioned: true
	// partitions: 3
	// hits: [7]
}

// ExampleOpen_velocitySample partitions from an upfront velocity sample
// instead of bootstrapping online: the analysis runs during Open and the
// Store is partitioned from the first Report.
func ExampleOpen_velocitySample() {
	// Velocities concentrated on two perpendicular road directions.
	rng := rand.New(rand.NewSource(1))
	sample := make([]vpindex.Vec2, 1000)
	for i := range sample {
		speed := 30 + rng.Float64()*50
		if i%2 == 0 {
			sample[i] = vpindex.V(speed, rng.NormFloat64())
		} else {
			sample[i] = vpindex.V(rng.NormFloat64(), -speed)
		}
	}

	idx, err := vpindex.Open(
		vpindex.WithKind(vpindex.TPRStar),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(sample),
		vpindex.WithSeed(42),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("partitions:", len(idx.Partitions())) // 2 DVAs + outlier

	// An eastbound car reported at t=0.
	_ = idx.Report(vpindex.Object{ID: 7, Pos: vpindex.V(1000, 500), Vel: vpindex.V(50, 0), T: 0})

	// Who is within 100 m of (3500, 500) at time 50? (The car will be at
	// x = 1000 + 50*50 = 3500.)
	ids, _ := idx.Search(vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(3500, 500), R: 100}, 0, 50))
	fmt.Println("hits:", ids)

	// Its single nearest neighbor at that time is itself.
	ns, _ := idx.SearchKNN(vpindex.KNNQuery{Center: vpindex.V(3500, 500), K: 1, Now: 0, T: 50})
	fmt.Println("nearest:", ns[0].ID)

	// Output:
	// partitions: 3
	// hits: [7]
	// nearest: 7
}

// ExampleOpen_unpartitioned shows the flat baseline: without a velocity
// partitioning option the Store is a single Bx-tree or TPR*-tree per shard.
func ExampleOpen_unpartitioned() {
	idx, err := vpindex.Open(vpindex.WithKind(vpindex.Bx))
	if err != nil {
		panic(err)
	}
	_ = idx.Report(vpindex.Object{ID: 1, Pos: vpindex.V(100, 100), Vel: vpindex.V(0, 10), T: 0})
	ids, _ := idx.Search(vpindex.RectSliceQuery(vpindex.R(50, 1000, 150, 1200), 0, 100))
	fmt.Println(ids)
	// Output: [1]
}
