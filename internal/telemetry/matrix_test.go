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
