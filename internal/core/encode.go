package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/model"
)

// Analysis wire codec, used by the durable Store: partition-swap WAL records
// and checkpoint files persist the Analysis so recovery can rebuild the
// exact same velocity partitions without re-running the partitioner (whose
// k-means would otherwise need the original sample). Elapsed is diagnostic
// only and is not persisted.
//
// The format is versioned: a sentinel + version header, the partitioner
// kind, and the full Frame set, so checkpoints carry any objective. The
// headerless pre-Partitioner format (v1) is no longer read; DecodeAnalysis
// rejects it as an unknown version.

// encSentinel marks the versioned format. A v1 encoding started with
// SampleSize (an int, so < 2^63); the all-ones word was unreachable there.
const encSentinel = ^uint64(0)

// encVersion is the current format version.
const encVersion = 2

const (
	v2Header     = 8 + 8 + 1 + 8 + 8 + 8 // sentinel, version, kind, sample, outliers, nframes
	v2FrameBytes = 6*8 + 2*8 + 1         // axis x/y, tau, speed min/max, dominance, count, outlierCount, flags
)

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// EncodeAnalysis serializes an Analysis in the versioned format
// (fixed-width little-endian).
func EncodeAnalysis(an Analysis) []byte {
	b := make([]byte, 0, v2Header+len(an.Frames)*v2FrameBytes)
	b = binary.LittleEndian.AppendUint64(b, encSentinel)
	b = binary.LittleEndian.AppendUint64(b, encVersion)
	b = append(b, byte(an.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(an.SampleSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(an.TotalOutliers))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(an.Frames)))
	for _, f := range an.Frames {
		b = appendF64(b, f.Axis.X)
		b = appendF64(b, f.Axis.Y)
		b = appendF64(b, f.Tau)
		b = appendF64(b, f.SpeedMin)
		b = appendF64(b, f.SpeedMax)
		b = appendF64(b, f.Dominance)
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Count))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.OutlierCount))
		var flags byte
		if f.IsOutlier {
			flags |= 1
		}
		b = append(b, flags)
	}
	return b
}

// DecodeAnalysis reverses EncodeAnalysis.
func DecodeAnalysis(p []byte) (Analysis, error) {
	if len(p) < v2Header {
		return Analysis{}, fmt.Errorf("core: truncated analysis")
	}
	if binary.LittleEndian.Uint64(p) != encSentinel {
		return Analysis{}, fmt.Errorf("core: unknown analysis format version 1 (no version header)")
	}
	if v := binary.LittleEndian.Uint64(p[8:]); v != encVersion {
		return Analysis{}, fmt.Errorf("core: unknown analysis format version %d", v)
	}
	var an Analysis
	an.Kind = PartitionerKind(p[16])
	an.SampleSize = int(binary.LittleEndian.Uint64(p[17:]))
	an.TotalOutliers = int(binary.LittleEndian.Uint64(p[25:]))
	n := binary.LittleEndian.Uint64(p[33:])
	p = p[v2Header:]
	if nb, ok := model.CountBytes(n, v2FrameBytes, len(p)); !ok || nb != len(p) {
		return Analysis{}, fmt.Errorf("core: analysis length mismatch")
	}
	an.Frames = make([]Frame, n)
	for i := range an.Frames {
		f := &an.Frames[i]
		f.Axis.X = math.Float64frombits(binary.LittleEndian.Uint64(p))
		f.Axis.Y = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		f.Tau = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
		f.SpeedMin = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
		f.SpeedMax = math.Float64frombits(binary.LittleEndian.Uint64(p[32:]))
		f.Dominance = math.Float64frombits(binary.LittleEndian.Uint64(p[40:]))
		f.Count = int(binary.LittleEndian.Uint64(p[48:]))
		f.OutlierCount = int(binary.LittleEndian.Uint64(p[56:]))
		f.IsOutlier = p[64]&1 != 0
		p = p[v2FrameBytes:]
	}
	return an, nil
}
