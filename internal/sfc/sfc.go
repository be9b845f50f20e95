// Package sfc implements the space-filling curve the Bx-tree uses to
// linearize 2-D grid cells into B+-tree keys (Section 3.2 of the VP paper:
// "a space-filling curve (Hilbert-curve or Z-curve) to map the location of
// each grid cell to a 1D space where 2D proximity is approximately
// preserved"). The paper's configuration uses the Hilbert curve, the one
// implemented here.
//
// The curve is a bijection between (x, y) cells of a 2^order x 2^order grid
// and [0, 4^order), plus an exact decomposition of an axis-aligned cell
// window into maximal runs of consecutive curve values. The decomposition
// drives Bx-tree range scans; a post-pass can merge nearby runs to trade a
// few extra scanned keys for fewer B+-tree probes.
package sfc

import "fmt"

// MaxOrder bounds the grid resolution so that curve values fit comfortably
// in a uint64 alongside the Bx-tree's bucket prefix.
const MaxOrder = 24

// Interval is a half-open range [Lo, Hi) of curve values.
type Interval struct {
	Lo, Hi uint64
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// MergeIntervals coalesces a sorted, disjoint interval list down to at most
// max entries by bridging the smallest inter-interval gaps first, so a
// fixed scan budget wastes the fewest bridged (non-matching) keys — the
// gap-aware counterpart of simply merging adjacent intervals left to right.
// Ties between equal gaps are broken toward the earlier gap, making the
// output deterministic. The result covers a superset of the input (callers
// filter exactly afterwards) and reuses ivs' backing array; the input is
// consumed. max <= 0 or max >= len(ivs) returns ivs unchanged.
func MergeIntervals(ivs []Interval, max int) []Interval {
	if max <= 0 || len(ivs) <= max {
		return ivs
	}
	// The threshold is the nBridge-th smallest of the len(ivs)-1 gaps, that
	// is the max-th largest: keep the max largest in descending order, on the
	// stack for the Bx-tree's budget — this runs once per time bucket of every
	// Bx-tree query — and no gap list is stored or sorted.
	var stack [16]uint64
	top := stack[:0]
	if max > len(stack) {
		top = make([]uint64, 0, max)
	}
	for i := 0; i+1 < len(ivs); i++ {
		g := ivs[i+1].Lo - ivs[i].Hi
		if len(top) == max {
			if g <= top[max-1] {
				continue
			}
			top = top[:max-1]
		}
		j := len(top)
		top = append(top, g)
		for ; j > 0 && top[j-1] < g; j-- {
			top[j] = top[j-1]
		}
		top[j] = g
	}
	// Bridge every gap strictly below the threshold, plus the earliest gaps
	// equal to it until exactly nBridge = len(ivs)-max are bridged.
	nBridge := len(ivs) - max
	threshold := top[max-1]
	atThreshold := nBridge
	for i := 0; i+1 < len(ivs); i++ {
		if ivs[i+1].Lo-ivs[i].Hi < threshold {
			atThreshold--
		}
	}
	// Merging in place only writes entries the loop has passed: ivs[i] and
	// ivs[i+1] still hold their input when gap i is read.
	out := ivs[:1]
	for i := 0; i+1 < len(ivs); i++ {
		g := ivs[i+1].Lo - ivs[i].Hi
		bridge := g < threshold
		if g == threshold && atThreshold > 0 {
			bridge = true
			atThreshold--
		}
		if bridge {
			out[len(out)-1].Hi = ivs[i+1].Hi
		} else {
			out = append(out, ivs[i+1])
		}
	}
	return out
}

// normalizeWindow clips the inclusive window to the grid and reports
// whether anything remains.
func normalizeWindow(size uint32, x0, y0, x1, y1 *uint32) bool {
	if *x0 > *x1 || *y0 > *y1 {
		return false
	}
	if *x0 >= size || *y0 >= size {
		return false
	}
	if *x1 >= size {
		*x1 = size - 1
	}
	if *y1 >= size {
		*y1 = size - 1
	}
	return true
}
