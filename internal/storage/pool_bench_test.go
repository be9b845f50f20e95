package storage

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// cleanPages allocates n pages on d and returns their ids; the pages are
// zeroed and were never cached, so a pool over d reads them clean.
func cleanPages(b *testing.B, d *MemStore, n int) []PageID {
	ids := make([]PageID, n)
	for i := range ids {
		id, err := d.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// BenchmarkPoolMiss is the cost of a miss that evicts: a pool of n frames
// reads 2n clean pages in a cycle, so under exact LRU every access misses
// and every miss scans its stripe for the victim. On the dirty axis every
// access is a Write instead of a Read, so every miss also writes its victim
// back. It reports misses/op and writes/op as a check that the walk does
// miss and write back.
func BenchmarkPoolMiss(b *testing.B) {
	for _, dirty := range []bool{false, true} {
		for _, n := range []int{17, 68, 340, 4096} {
			b.Run(fmt.Sprintf("dirty=%t/frames=%d", dirty, n), func(b *testing.B) {
				d := NewMemStore()
				p := NewBufferPool(d, n)
				ids := cleanPages(b, d, 2*n)
				access := p.Read
				if dirty {
					access = p.Write
				}
				for _, id := range ids { // fill the pool first
					if err := access(id, func([]byte) {}); err != nil {
						b.Fatal(err)
					}
				}
				before := p.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := access(ids[i%len(ids)], func([]byte) {}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after := p.Stats()
				b.ReportMetric(float64(after.Misses-before.Misses)/float64(b.N), "misses/op")
				b.ReportMetric(float64(after.Writes-before.Writes)/float64(b.N), "writes/op")
			})
		}
	}
}

// BenchmarkPoolHit is the cost of a cached page access under contention: a
// 4,096-frame pool (8 stripes) holds a 2,048-page working set, and every
// goroutine of b.RunParallel reads it in its own stride, so neighbouring
// frames are hit from different CPUs. Run it at -cpu 1,2 to see the shared
// writes of the hit path.
func BenchmarkPoolHit(b *testing.B) {
	const frames, pages = 4096, 2048
	d := NewMemStore()
	p := NewBufferPool(d, frames)
	ids := cleanPages(b, d, pages)
	for _, id := range ids {
		if err := p.Read(id, func([]byte) {}); err != nil {
			b.Fatal(err)
		}
	}
	before := p.Stats().Misses
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 7919
		for pb.Next() {
			if err := p.Read(ids[i%pages], func([]byte) {}); err != nil {
				b.Error(err)
				return
			}
			i += 13
		}
	})
	b.StopTimer()
	if m := p.Stats().Misses - before; m != 0 {
		b.Fatalf("resident working set missed %d times", m)
	}
}
