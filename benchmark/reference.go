package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// loadgen.machine_speed says how fast the machine ran a fixed arithmetic
// kernel beside the measured phases, so that a reader can tell a slow
// machine from a slow program. It is a validity reading only: no metric is
// scaled by it. The kernel is written here on plain float arrays and calls
// nothing of the program under test, so a change to the program cannot move
// it.

const (
	referencePoints = 100_000   // 3.2 MB over four arrays: larger than the L2 cache, like the indexes
	referenceScans  = 8         // scans per caller per burst
	referenceScanNs = 1_450_000 // one scan on the sandbox this was written on when it is quiet
	referenceWarm   = 30 * time.Millisecond
)

type reference struct{ x, y, vx, vy []float64 }

func newReference() *reference {
	r := &reference{
		x: make([]float64, referencePoints), y: make([]float64, referencePoints),
		vx: make([]float64, referencePoints), vy: make([]float64, referencePoints),
	}
	// A fixed linear congruential sequence: the same arrays on every run.
	state := uint64(0x5ca1e)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	for i := range r.x {
		r.x[i], r.y[i] = next()*100_000, next()*100_000
		r.vx[i], r.vy[i] = next()*100-50, next()*100-50
	}
	return r
}

var referenceSink int

// speed runs one burst of scans on every caller's processor at once and
// returns the machine's speed relative to the sandbox this was written on:
// below 1 when this machine is slower. A scan counts the points that are
// within 500 m of the centre 30, 60 and 90 ts from now. The scans of the
// first referenceWarm are not timed: a processor that was idle a moment ago
// runs them up to three times slower here, which says nothing about the
// machine. The median of the timed scans is used, so one preempted scan
// does not count.
func (r *reference) speed() float64 {
	var (
		wg    sync.WaitGroup
		times [numCallers][referenceScans]int64
		hits  [numCallers]int
	)
	for c := 0; c < numCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for begin := time.Now(); time.Since(begin) < referenceWarm; {
				hits[c] += r.scan()
			}
			for i := range times[c] {
				start := time.Now()
				hits[c] += r.scan()
				times[c][i] = time.Since(start).Nanoseconds()
			}
		}()
	}
	wg.Wait()
	referenceSink = hits[0] // keeps the scans from being optimised away
	all := make([]int64, 0, numCallers*referenceScans)
	for c := range times {
		all = append(all, times[c][:]...)
	}
	slices.Sort(all)
	return referenceScanNs / float64(all[len(all)/2])
}

func (r *reference) scan() (n int) {
	for j := range r.x {
		for _, t := range [...]float64{30, 60, 90} {
			if math.Hypot(r.x[j]+r.vx[j]*t-50_000, r.y[j]+r.vy[j]*t-50_000) <= 500 {
				n++
			}
		}
	}
	return n
}
