package model

// CountBytes returns the byte length of n fixed-width elements of size bytes
// each, and whether they fit in avail bytes. Every decoder of an on-disk
// format (internal/ckpt, internal/wal, core.DecodeAnalysis) runs a count it
// read from the bytes through this before trusting it: the bound divides the
// bytes that remain, which cannot wrap the way n*size does, so a hostile count
// reaches neither a multiplication nor make. avail is a len; size must be positive.
func CountBytes(n uint64, size, avail int) (int, bool) {
	if n > uint64(avail)/uint64(size) {
		return 0, false
	}
	return int(n) * size, true
}
