package sfc

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBijectionSmallGrids(t *testing.T) {
	for order := uint(1); order <= 6; order++ {
		c := MustHilbert(order)
		size := c.Size()
		seen := make(map[uint64]bool, int(size)*int(size))
		for x := uint32(0); x < size; x++ {
			for y := uint32(0); y < size; y++ {
				d := c.Encode(x, y)
				if d >= uint64(size)*uint64(size) {
					t.Fatalf("order %d: value %d out of range", order, d)
				}
				if seen[d] {
					t.Fatalf("order %d: duplicate value %d", order, d)
				}
				seen[d] = true
				gx, gy := c.Decode(d)
				if gx != x || gy != y {
					t.Fatalf("order %d: decode(%d) = (%d,%d), want (%d,%d)",
						order, d, gx, gy, x, y)
				}
			}
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert values must be 4-adjacent cells — the defining
	// locality property.
	for order := uint(1); order <= 7; order++ {
		h := MustHilbert(order)
		n := uint64(h.Size()) * uint64(h.Size())
		px, py := h.Decode(0)
		for d := uint64(1); d < n; d++ {
			x, y := h.Decode(d)
			dx := int64(x) - int64(px)
			dy := int64(y) - int64(py)
			if dx*dx+dy*dy != 1 {
				t.Fatalf("order %d: step %d->%d jumps (%d,%d)->(%d,%d)",
					order, d-1, d, px, py, x, y)
			}
			px, py = x, y
		}
	}
}

func TestBijectionPropertyLargeOrder(t *testing.T) {
	c := MustHilbert(16)
	f := func(x, y uint32) bool {
		x %= c.Size()
		y %= c.Size()
		gx, gy := c.Decode(c.Encode(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodePanicsOutOfRange(t *testing.T) {
	c := MustHilbert(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range encode")
		}
	}()
	c.Encode(c.Size(), 0)
}

func TestNewValidation(t *testing.T) {
	if _, err := NewHilbert(0); err == nil {
		t.Fatal("order 0 should fail")
	}
	if _, err := NewHilbert(MaxOrder + 1); err == nil {
		t.Fatal("order > MaxOrder should fail")
	}
}

// windowOracle computes the exact value set of a window by brute force.
func windowOracle(c *Hilbert, x0, y0, x1, y1 uint32) map[uint64]bool {
	out := make(map[uint64]bool)
	size := c.Size()
	for x := x0; x <= x1 && x < size; x++ {
		for y := y0; y <= y1 && y < size; y++ {
			out[c.Encode(x, y)] = true
		}
	}
	return out
}

func TestDecomposeWindowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, order := range []uint{3, 5, 7} {
		c := MustHilbert(order)
		size := c.Size()
		for trial := 0; trial < 200; trial++ {
			x0 := uint32(rng.Intn(int(size)))
			y0 := uint32(rng.Intn(int(size)))
			x1 := x0 + uint32(rng.Intn(int(size-x0)))
			y1 := y0 + uint32(rng.Intn(int(size-y0)))
			ivs := c.AppendWindow(nil, x0, y0, x1, y1)
			want := windowOracle(c, x0, y0, x1, y1)
			var total uint64
			prevHi := uint64(0)
			for i, iv := range ivs {
				if iv.Hi <= iv.Lo {
					t.Fatalf("empty interval %v", iv)
				}
				if i > 0 && iv.Lo <= prevHi {
					t.Fatal("intervals not disjoint/sorted")
				}
				prevHi = iv.Hi
				total += iv.Hi - iv.Lo
				for d := iv.Lo; d < iv.Hi; d++ {
					if !want[d] {
						t.Fatalf("window [%d,%d]x[%d,%d] decomposition includes stray %d",
							x0, x1, y0, y1, d)
					}
				}
			}
			if total != uint64(len(want)) {
				t.Fatalf("decomposition covers %d values, want %d", total, len(want))
			}
		}
	}
}

func TestDecomposeWindowFullGrid(t *testing.T) {
	c := MustHilbert(6)
	size := c.Size()
	ivs := c.AppendWindow(nil, 0, 0, size-1, size-1)
	if len(ivs) != 1 || ivs[0].Lo != 0 || ivs[0].Hi != uint64(size)*uint64(size) {
		t.Fatalf("full grid should be one interval, got %v", ivs)
	}
}

func TestDecomposeWindowClipsAndRejects(t *testing.T) {
	c := MustHilbert(4)
	if ivs := c.AppendWindow(nil, 20, 20, 30, 30); ivs != nil {
		t.Fatalf("fully outside window should be nil, got %v", ivs)
	}
	if ivs := c.AppendWindow(nil, 3, 3, 2, 2); ivs != nil {
		t.Fatalf("inverted window should be nil, got %v", ivs)
	}
	// Clipped window equals clamped oracle.
	ivs := c.AppendWindow(nil, 10, 10, 99, 99)
	want := windowOracle(c, 10, 10, 15, 15)
	var total uint64
	for _, iv := range ivs {
		total += iv.Hi - iv.Lo
		for d := iv.Lo; d < iv.Hi; d++ {
			if !want[d] {
				t.Fatalf("stray value %d", d)
			}
		}
	}
	if total != uint64(len(want)) {
		t.Fatalf("covered %d, want %d", total, len(want))
	}
}

func TestMergeIntervals(t *testing.T) {
	ivs := []Interval{{0, 2}, {5, 6}, {7, 9}, {100, 110}}
	// Merging to 2 should bridge the two smallest gaps (5..7 area first,
	// then 2..5), keeping the 9..100 chasm.
	got := MergeIntervals(append([]Interval(nil), ivs...), 2)
	if len(got) != 2 {
		t.Fatalf("got %d intervals: %v", len(got), got)
	}
	if got[0] != (Interval{0, 9}) || got[1] != (Interval{100, 110}) {
		t.Fatalf("unexpected merge: %v", got)
	}
	// max <= 0 and max >= len are no-ops.
	if out := MergeIntervals(ivs, 0); len(out) != len(ivs) {
		t.Fatal("max=0 should be a no-op")
	}
	if out := MergeIntervals(ivs, 10); len(out) != len(ivs) {
		t.Fatal("large max should be a no-op")
	}
}

func TestMergeIntervalsCoversInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		var ivs []Interval
		cursor := uint64(0)
		for i := 0; i < 20; i++ {
			cursor += uint64(rng.Intn(50)) + 1
			lo := cursor
			cursor += uint64(rng.Intn(30)) + 1
			ivs = append(ivs, Interval{lo, cursor})
		}
		max := 1 + rng.Intn(20)
		merged := MergeIntervals(append([]Interval(nil), ivs...), max)
		if len(merged) > max {
			t.Fatalf("merged to %d > max %d", len(merged), max)
		}
		// Every original value must remain covered.
		for _, iv := range ivs {
			for d := iv.Lo; d < iv.Hi; d++ {
				covered := false
				for _, m := range merged {
					if d >= m.Lo && d < m.Hi {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("value %d lost in merge", d)
				}
			}
		}
	}
}

func TestMergeIntervalsTieBreaksTowardEarlierGaps(t *testing.T) {
	// Three equal 10-wide gaps; budget 3 forces bridging exactly one.
	// Deterministic gap-aware merging must pick the earliest.
	ivs := []Interval{{0, 5}, {15, 20}, {30, 35}, {45, 50}}
	got := MergeIntervals(append([]Interval(nil), ivs...), 3)
	want := []Interval{{0, 20}, {30, 35}, {45, 50}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMergeIntervalsPrefersSmallestGaps(t *testing.T) {
	// Gaps: 1, 100, 2, 50. Budget 3 bridges the two smallest (1 and 2).
	ivs := []Interval{{0, 10}, {11, 20}, {120, 130}, {132, 140}, {190, 200}}
	got := MergeIntervals(append([]Interval(nil), ivs...), 3)
	want := []Interval{{0, 20}, {120, 140}, {190, 200}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAppendWindowMatchesDecomposeAndKeepsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := MustHilbert(5)
	size := c.Size()
	prefix := []Interval{{999, 1000}}
	buf := append([]Interval(nil), prefix...)
	for trial := 0; trial < 200; trial++ {
		x0 := rng.Uint32() % size
		x1 := x0 + rng.Uint32()%(size-x0)
		y0 := rng.Uint32() % size
		y1 := y0 + rng.Uint32()%(size-y0)
		want := c.AppendWindow(nil, x0, y0, x1, y1)
		buf = c.AppendWindow(buf[:len(prefix)], x0, y0, x1, y1)
		if buf[0] != prefix[0] {
			t.Fatalf("AppendWindow clobbered the prefix: %v", buf[0])
		}
		got := buf[len(prefix):]
		if len(got) != len(want) {
			t.Fatalf("window (%d,%d)-(%d,%d): append %v != decompose %v",
				x0, y0, x1, y1, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window (%d,%d)-(%d,%d): append %v != decompose %v",
					x0, y0, x1, y1, got, want)
			}
		}
	}
}

func BenchmarkHilbertEncode(b *testing.B) {
	h := MustHilbert(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Encode(uint32(i)&0xFFFF, uint32(i*2654435761)&0xFFFF)
	}
}

func BenchmarkHilbertDecompose(b *testing.B) {
	h := MustHilbert(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := uint32(i) % 900
		h.AppendWindow(nil, x, x/2, x+60, x/2+60)
	}
}

// refAppendWindow is AppendWindow as it was before it merged as it appended
// and read 8x8 blocks off tables: the quadtree descent down to single cells,
// then a sort of the appended intervals and a merge of the touching ones.
func refAppendWindow(h *Hilbert, dst []Interval, x0, y0, x1, y1 uint32) []Interval {
	size := h.Size()
	if !normalizeWindow(size, &x0, &y0, &x1, &y1) {
		return dst
	}
	mark := len(dst)
	refDecompose(x0, y0, x1, y1, size, 0, &dst)
	tail := dst[mark:]
	if len(tail) <= 1 {
		return dst
	}
	slices.SortFunc(tail, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	n := 1
	for _, iv := range tail[1:] {
		last := &tail[n-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			tail[n] = iv
			n++
		}
	}
	return dst[:mark+n]
}

func refDecompose(x0, y0, x1, y1, size uint32, base uint64, out *[]Interval) {
	if x0 == 0 && y0 == 0 && x1 == size-1 && y1 == size-1 {
		*out = append(*out, Interval{base, base + uint64(size)*uint64(size)})
		return
	}
	if size == 1 {
		*out = append(*out, Interval{base, base + 1})
		return
	}
	s := size / 2
	area := uint64(s) * uint64(s)
	for q := uint64(0); q < 4; q++ {
		rx, ry := rankQuad(q)
		qx0, qy0 := rx*s, ry*s
		qx1, qy1 := qx0+s-1, qy0+s-1
		ix0, iy0 := max(x0, qx0), max(y0, qy0)
		ix1, iy1 := min(x1, qx1), min(y1, qy1)
		if ix0 > ix1 || iy0 > iy1 {
			continue
		}
		ix0 -= qx0
		ix1 -= qx0
		iy0 -= qy0
		iy1 -= qy0
		ax, ay := ix0, iy0
		bx, by := ix1, iy1
		rot(s, &ax, &ay, rx, ry)
		rot(s, &bx, &by, rx, ry)
		refDecompose(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by), s, base+q*area, out)
	}
}

// refMergeIntervals is MergeIntervals as it was before it selected its
// threshold instead of sorting every gap.
func refMergeIntervals(ivs []Interval, max int) []Interval {
	if max <= 0 || len(ivs) <= max {
		return ivs
	}
	n := len(ivs) - 1
	gaps, ordered := make([]uint64, n), make([]uint64, n)
	for i := range gaps {
		gaps[i] = ivs[i+1].Lo - ivs[i].Hi
	}
	copy(ordered, gaps)
	slices.Sort(ordered)
	nBridge := len(ivs) - max
	threshold := ordered[nBridge-1]
	atThreshold := 0
	for _, g := range ordered[:nBridge] {
		if g == threshold {
			atThreshold++
		}
	}
	out := ivs[:1]
	for i := 0; i+1 < len(ivs); i++ {
		bridge := gaps[i] < threshold
		if gaps[i] == threshold && atThreshold > 0 {
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

// TestAppendWindowEquivalence: AppendWindow, and MergeIntervals over its
// output at several budgets, equal the reference copies interval for interval
// on 120,000 windows: the Bx-tree's order-8 grid and orders 1 to 10, windows
// of one cell, 1-cell-wide strips, the whole grid, windows past the edge and
// inverted ones, random rectangles, each appended behind a prefix that must
// survive untouched.
func TestAppendWindowEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	prefix := Interval{1 << 40, 1<<40 + 1}
	var got, want []Interval
	windows, intervals := 0, 0
	for trial := 0; trial < 120000; trial++ {
		order := uint(8)
		if trial%3 == 0 {
			order = uint(1 + rng.Intn(10))
		}
		c := MustHilbert(order)
		size := c.Size()
		coord := func() uint32 { return uint32(rng.Intn(int(size))) }
		x0, y0 := coord(), coord()
		x1, y1 := x0+uint32(rng.Intn(int(size-x0))), y0+uint32(rng.Intn(int(size-y0)))
		switch trial % 8 {
		case 0: // one cell
			x1, y1 = x0, y0
		case 1: // a 1-cell-wide strip
			x1 = x0
		case 2:
			y1 = y0
		case 3: // the whole grid, or past it
			x0, y0, x1, y1 = 0, 0, size-1+uint32(rng.Intn(3)), size-1+uint32(rng.Intn(3))
		case 4: // past the edge, partly or wholly, or inverted
			x1 += uint32(rng.Intn(int(size) + 2))
			y0 += uint32(rng.Intn(int(size) + 2))
			if rng.Intn(8) == 0 {
				x0, x1 = x1+1, x0
			}
		}
		got = c.AppendWindow(append(got[:0], prefix), x0, y0, x1, y1)
		want = refAppendWindow(c, append(want[:0], prefix), x0, y0, x1, y1)
		if !slices.Equal(got, want) {
			t.Fatalf("order %d, window (%d,%d)-(%d,%d): %v, reference %v", order, x0, y0, x1, y1, got, want)
		}
		for _, max := range []int{1, 2, 5, 16} {
			g := MergeIntervals(slices.Clone(got[1:]), max)
			w := refMergeIntervals(slices.Clone(want[1:]), max)
			if !slices.Equal(g, w) {
				t.Fatalf("order %d, window (%d,%d)-(%d,%d), budget %d: merged %v, reference %v", order, x0, y0, x1, y1, max, g, w)
			}
		}
		windows++
		intervals += len(got) - 1
	}
	t.Logf("%d windows identical to the reference, %.1f intervals each", windows, float64(intervals)/float64(windows))
}

// TestMergeIntervalsTiesEquivalence: MergeIntervals equals the sorting
// reference on interval lists whose gaps repeat a few values, where the
// threshold's ties decide which gaps are bridged.
func TestMergeIntervalsTiesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(300)
		ivs := make([]Interval, n)
		cursor := uint64(0)
		for i := range ivs {
			cursor += uint64(rng.Intn(1 + trial%7)) // gaps 0..6, many equal
			ivs[i] = Interval{cursor, cursor + 1}
			cursor++
		}
		max := rng.Intn(n + 2)
		g := MergeIntervals(slices.Clone(ivs), max)
		w := refMergeIntervals(slices.Clone(ivs), max)
		if !slices.Equal(g, w) {
			t.Fatalf("trial %d, %d intervals, budget %d: %v, reference %v", trial, n, max, g, w)
		}
	}
}
