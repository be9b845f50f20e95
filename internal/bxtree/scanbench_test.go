package bxtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/storage"
)

func benchTree(b *testing.B) *Tree {
	b.Helper()
	pool := storage.NewBufferPool(storage.NewDisk(), 8)
	tr, err := NewTree(pool, Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		o := model.Object{
			ID:  model.ObjectID(i + 1),
			Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: geom.V(rng.NormFloat64()*30, rng.NormFloat64()*30),
			T:   float64(i%100) * 0.7,
		}
		if err := tr.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
	return tr
}

func BenchmarkSearch(b *testing.B) {
	tr := benchTree(b)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := geom.V(rng.Float64()*100000, rng.Float64()*100000)
		q := model.RangeQuery{Kind: model.TimeSlice, Circle: geom.Circle{C: c, R: 2500},
			Rect: geom.Circle{C: c, R: 2500}.Bound(), Now: 70, T0: 130}
		if _, err := tr.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}
