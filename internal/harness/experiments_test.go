package harness

import (
	"bytes"
	"os"
	"testing"
)

// TestTablesMatchReproduceOutput runs the list's table1–table3 entries
// and the A3–A5 ablations at the recorded settings, and holds their text
// to lines 1–67 and 453–475 of the committed reproduce_output.txt, byte
// for byte.
func TestTablesMatchReproduceOutput(t *testing.T) {
	golden, err := os.ReadFile("../../reproduce_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	if len(lines) < 475 {
		t.Fatalf("reproduce_output.txt has %d lines, want at least 475", len(lines))
	}
	opt := Options{Seed: 42, TimeScale: 1}

	var tables bytes.Buffer
	for _, e := range Experiments() {
		switch e.Name {
		case "table1", "table2", "table3":
			if err := e.Run(opt, &tables); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	}
	if want := bytes.Join(lines[:67], nil); !bytes.Equal(tables.Bytes(), want) {
		t.Errorf("tables differ from reproduce_output.txt:\n got:\n%s\nwant:\n%s", tables.Bytes(), want)
	}

	var tail bytes.Buffer
	if err := runAblationTail(opt, &tail); err != nil {
		t.Fatal(err)
	}
	if want := bytes.Join(lines[452:475], nil); !bytes.Equal(tail.Bytes(), want) {
		t.Errorf("A3–A5 differ from reproduce_output.txt:\n got:\n%s\nwant:\n%s", tail.Bytes(), want)
	}
}
