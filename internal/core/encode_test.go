package core

import (
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestAnalysisCodecRoundTrip(t *testing.T) {
	an := Analysis{
		Kind: KindDVA,
		Frames: []Frame{
			{Axis: geom.V(0.8, 0.6), Tau: 3.25, Count: 4200, OutlierCount: 17, Dominance: 0.41},
			{Axis: geom.V(-0.6, 0.8), Tau: 1.5, Count: 3800, OutlierCount: 9, Dominance: 0.38},
			{IsOutlier: true, Count: 26},
		},
		TotalOutliers: 26,
		SampleSize:    10_000,
	}
	got, err := DecodeAnalysis(EncodeAnalysis(an))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != an.Kind || got.SampleSize != an.SampleSize || got.TotalOutliers != an.TotalOutliers || len(got.Frames) != len(an.Frames) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range an.Frames {
		if got.Frames[i] != an.Frames[i] {
			t.Fatalf("frame %d = %+v, want %+v", i, got.Frames[i], an.Frames[i])
		}
	}

	// Empty analysis (no frames) round-trips too.
	empty, err := DecodeAnalysis(EncodeAnalysis(Analysis{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Frames) != 0 {
		t.Fatalf("empty analysis decoded %d frames", len(empty.Frames))
	}

	// Truncation and trailing bytes are rejected.
	b := EncodeAnalysis(an)
	if _, err := DecodeAnalysis(b[:len(b)-1]); err == nil {
		t.Fatal("truncated analysis decoded")
	}
	if _, err := DecodeAnalysis(append(b, 0)); err == nil {
		t.Fatal("oversized analysis decoded")
	}
	if _, err := DecodeAnalysis(b[:10]); err == nil {
		t.Fatal("truncated header decoded")
	}
}

func TestAnalysisCodecRoundTripSpeedAndNone(t *testing.T) {
	for _, an := range []Analysis{
		{
			Kind: KindSpeed,
			Frames: []Frame{
				{SpeedMin: 0, SpeedMax: 12.5, Count: 7000},
				{SpeedMin: 12.5, SpeedMax: math.Inf(1), Count: 3000},
			},
			SampleSize: 10_000,
		},
		{
			Kind:       KindNone,
			Frames:     []Frame{{SpeedMax: math.Inf(1), Count: 500}},
			SampleSize: 500,
		},
	} {
		if err := an.Validate(); err != nil {
			t.Fatalf("%s analysis invalid: %v", an.Kind, err)
		}
		got, err := DecodeAnalysis(EncodeAnalysis(an))
		if err != nil {
			t.Fatalf("%s: %v", an.Kind, err)
		}
		if got.Kind != an.Kind || got.SampleSize != an.SampleSize || len(got.Frames) != len(an.Frames) {
			t.Fatalf("%s header mismatch: %+v", an.Kind, got)
		}
		for i := range an.Frames {
			if got.Frames[i] != an.Frames[i] {
				t.Fatalf("%s frame %d = %+v, want %+v", an.Kind, i, got.Frames[i], an.Frames[i])
			}
		}
	}
}

// TestDecodeV1AnalysisRejected feeds DecodeAnalysis the exact bytes the
// headerless pre-Partitioner codec (PRs 6/7) produced for a two-DVA
// analysis: the format is no longer read, and must come back as an
// unknown-version error rather than a panic or a misparse.
func TestDecodeV1AnalysisRejected(t *testing.T) {
	const v1Hex = "c0060000000000001c00000000000000020000000000000000000000" +
		"0000f03f00000000000000000000000000000c408403000000000000110000000000" +
		"00000ad7a3703d0aef3f0000000000000000000000000000f03f0000000000000240" +
		"20030000000000000b00000000000000713d0ad7a370ed3f"
	raw, err := hex.DecodeString(v1Hex)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAnalysis(raw); err == nil || !strings.Contains(err.Error(), "unknown analysis format version") {
		t.Fatalf("v1 analysis blob: err = %v, want unknown-version error", err)
	}
}
