package harness

import (
	"bytes"
	"os"
	"testing"
)

// TestTablesMatchReproduceOutput runs the list's table1–table3 entries at
// the recorded settings and holds their text to the first 67 lines of the
// committed reproduce_output.txt, byte for byte.
func TestTablesMatchReproduceOutput(t *testing.T) {
	golden, err := os.ReadFile("../../reproduce_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	if len(lines) < 67 {
		t.Fatalf("reproduce_output.txt has %d lines, want at least 67", len(lines))
	}
	want := bytes.Join(lines[:67], nil)

	var got bytes.Buffer
	opt := Options{Seed: 42, TimeScale: 1}
	for _, e := range Experiments() {
		switch e.Name {
		case "table1", "table2", "table3":
			if err := e.Run(opt, &got); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables differ from reproduce_output.txt:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
