package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// readDump loads a dump from its JSON form, exactly as main does.
func readDump(t *testing.T, js string) *metrics.Dump {
	t.Helper()
	d, err := metrics.ReadJSON(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSummaryZeroWindows: a run shorter than one harvest window writes a
// valid dump with instruments but no windows. The summary must report
// it instead of rendering window -1.
func TestSummaryZeroWindows(t *testing.T) {
	d := readDump(t, `{"window_ps":10000000,"first_window":0,"dropped_windows":0,
		"starts_ps":[],"ends_ps":[],
		"instruments":[
		 {"resource":"umc0/rd","metric":"wait_ps","family":"memsys","unit":"ps","kind":"counter","samples":[]},
		 {"resource":"umc0/rd","metric":"bytes","family":"memsys","unit":"bytes","kind":"counter","samples":[]}]}`)
	var buf bytes.Buffer
	summary(&buf, d, 5)
	out := buf.String()
	for _, want := range []string{"memsys", "bottleneck attribution (0 windows", "no windows recorded"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestSummaryLastWindow: with windows recorded, the summary ends with
// the newest window's top view.
func TestSummaryLastWindow(t *testing.T) {
	d := readDump(t, `{"window_ps":10000000,"first_window":3,"dropped_windows":3,
		"starts_ps":[30000000,40000000],"ends_ps":[40000000,50000000],
		"instruments":[
		 {"resource":"umc0/rd","metric":"wait_ps","family":"memsys","unit":"ps","kind":"counter","samples":[0,5000000]}]}`)
	var buf bytes.Buffer
	summary(&buf, d, 5)
	out := buf.String()
	if !strings.Contains(out, "window 4 ") || strings.Contains(out, "no windows recorded") {
		t.Errorf("summary does not end with window 4's top view:\n%s", out)
	}
	if !strings.HasSuffix(out, metrics.RenderWindow(d, 4, 5)+"\n") {
		t.Errorf("summary's last block is not window 4's render:\n%s", out)
	}
}
