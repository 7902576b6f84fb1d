package main

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

// TestTelemetryView pins the telemetry view against goldens captured
// when the link table's last column was a histogram P999 of the queueing
// wait. It is now the exact maximum, so that column may differ, but only
// upward (a P999 never exceeds the maximum); every other column, the
// header line and the traffic-matrix section must match byte for byte.
func TestTelemetryView(t *testing.T) {
	for _, name := range []string{"7302", "9634"} {
		prof, _ := topology.ProfileByName(name)
		var out bytes.Buffer
		printTelemetry(&out, prof)
		golden, err := os.ReadFile("testdata/telemetry_" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		gotTable, gotRest, _ := strings.Cut(out.String(), "\n\n")
		wantTable, wantRest, _ := strings.Cut(string(golden), "\n\n")
		if gotRest != wantRest {
			t.Errorf("%s: traffic-matrix section differs:\n%s\nwant:\n%s", name, gotRest, wantRest)
		}
		got, want := strings.Split(gotTable, "\n"), strings.Split(wantTable, "\n")
		if len(got) != len(want) || got[0] != want[0] {
			t.Fatalf("%s: table has %d lines headed %q, want %d headed %q", name, len(got), got[0], len(want), want[0])
		}
		for i := 1; i < len(want); i++ {
			g, w := strings.Fields(got[i]), strings.Fields(want[i])
			if len(g) != len(w) || strings.Join(g[:len(g)-1], " ") != strings.Join(w[:len(w)-1], " ") {
				t.Errorf("%s line %d:\n got %s\nwant %s", name, i, got[i], want[i])
				continue
			}
			if i == 1 {
				if g[len(g)-1] != "q-max" {
					t.Errorf("%s: last column %q, want q-max", name, g[len(g)-1])
				}
				continue
			}
			if hi, p999 := parseTime(t, g[len(g)-1]), parseTime(t, w[len(w)-1]); hi < p999 {
				t.Errorf("%s line %d: q-max %v below the former q-p999 %v", name, i, hi, p999)
			}
		}
	}
}

// parseTime reads a units.Time as its String method renders it.
func parseTime(t *testing.T, s string) units.Time {
	t.Helper()
	for _, u := range []struct {
		suffix string
		scale  units.Time
	}{{"ps", 1}, {"ns", units.Nanosecond}, {"us", units.Microsecond}, {"ms", units.Millisecond}, {"s", units.Second}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("bad time %q: %v", s, err)
			}
			return units.Time(f * float64(u.scale))
		}
	}
	t.Fatalf("bad time %q", s)
	return 0
}
