package telemetry

import (
	"testing"

	"repro/internal/units"
)

// TestTrafficMatrixRenderContent pins the String output: one line per
// non-zero cell, sorted by source then destination, with human-readable
// sizes.
func TestTrafficMatrixRenderContent(t *testing.T) {
	tm := NewTrafficMatrix()
	tm.Record("ccd1/core0", "umc0", 256)
	tm.Record("ccd0/core0", "umc1", 128)
	tm.Record("ccd0/core0", "umc0", 64)
	tm.Record("ccd0/core0", "umc0", 64) // accumulates into the first cell
	want := "ccd0/core0 -> umc0: " + units.ByteSize(128).String() + "\n" +
		"ccd0/core0 -> umc1: " + units.ByteSize(128).String() + "\n" +
		"ccd1/core0 -> umc0: " + units.ByteSize(256).String() + "\n"
	if got := tm.String(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	if got := NewTrafficMatrix().String(); got != "" {
		t.Fatalf("empty matrix rendered %q", got)
	}
}

func TestUnknownNamesReadZero(t *testing.T) {
	tm := NewTrafficMatrix()
	tm.Record("a", "b", units.CacheLine)
	if tm.Bytes("nope", "b") != 0 || tm.Bytes("a", "nope") != 0 || tm.Bytes("b", "a") != 0 {
		t.Error("unknown endpoint pair should read zero bytes")
	}
}

// TestSlidingSketchExpiryBoundary pins the exact expiry semantics: a count
// added in the oldest window survives until the clock has advanced by the
// full span, and is gone the moment it has.
func TestSlidingSketchExpiryBoundary(t *testing.T) {
	s := NewSlidingSketch(256, 3, 4, units.Microsecond) // span 4 us
	s.Add(0, "k", 10)
	// 3 us later the original window is the oldest live one: still counted.
	s.Add(3*units.Microsecond, "other", 1)
	if got := s.Estimate("k"); got < 10 {
		t.Fatalf("within span: Estimate = %d, want >= 10", got)
	}
	// At exactly span (4 us) the original window rotates out.
	s.Add(4*units.Microsecond, "other", 1)
	if got := s.Estimate("k"); got != 0 {
		t.Fatalf("at span boundary: Estimate = %d, want 0", got)
	}
}

// TestSlidingSketchLongJump: a clock jump many spans ahead must clear the
// whole ring, leaving only the fresh add.
func TestSlidingSketchLongJump(t *testing.T) {
	s := NewSlidingSketch(256, 3, 4, units.Microsecond)
	for us := 0; us < 4; us++ {
		s.Add(units.Time(us)*units.Microsecond, "k", 5)
	}
	if got := s.Estimate("k"); got < 20 {
		t.Fatalf("pre-jump Estimate = %d, want >= 20", got)
	}
	s.Add(1000*units.Microsecond, "k", 7)
	got := s.Estimate("k")
	if got < 7 || got >= 12 {
		t.Fatalf("post-jump Estimate = %d, want exactly the fresh 7 (sketch may over-estimate slightly)", got)
	}
}
