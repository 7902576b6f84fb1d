package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/units"
)

// refMicros and refWriteTraceEvents are the fmt-based exporter the
// append encoder replaced, kept verbatim as the byte-for-byte reference
// FuzzTraceEvents holds writeTraceEvents to.
func refMicros(t units.Time) string {
	return strconv.FormatFloat(float64(t)/psPerMicro, 'f', -1, 64)
}

func refWriteTraceEvents(w io.Writer, hops []Hop, each func(func(Span)), anns []Annotation) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	bw.WriteString("\n")
	fmt.Fprintf(bw, `{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"chiplet-net"}}`)
	for i, h := range hops {
		fmt.Fprintf(bw, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s,\"kind\":%q}}",
			i+1, strconv.Quote(h.Name), h.Kind.String())
	}
	annTid := len(hops) + 1
	if len(anns) > 0 {
		fmt.Fprintf(bw, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"incidents\",\"kind\":%q}}",
			annTid, incidentTrackKind)
	}
	each(func(s Span) {
		fmt.Fprintf(bw, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%q,\"args\":{\"txn\":%d}}",
			int(s.Hop)+1, refMicros(s.Start), refMicros(s.Duration()), s.Cause.String(), s.Txn)
	})
	for _, a := range anns {
		fmt.Fprintf(bw, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,"+
			"\"args\":{\"resource\":%s,\"severity\":%g,\"baseline\":%g,\"detector\":%q,\"open\":%v}}",
			annTid, refMicros(a.Start), refMicros(a.End-a.Start), strconv.Quote(a.Name),
			strconv.Quote(a.Name), a.Severity, a.Baseline, a.Detector, a.Open)
		fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%s,\"args\":{\"resource\":%s,\"severity\":%g}}",
			annTid, refMicros(a.Start), strconv.Quote("onset "+a.Name), strconv.Quote(a.Name), a.Severity)
		if !a.Open {
			fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%s,\"args\":{\"resource\":%s,\"severity\":%g}}",
				annTid, refMicros(a.End), strconv.Quote("clear "+a.Name), strconv.Quote(a.Name), a.Severity)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// maxFuzzTime bounds fuzzed span times to 2^53 ps, the float64-exact
// range the export format promises.
const maxFuzzTime = 1 << 53

// fuzzTime maps eight fuzz bytes onto [-2^53, 2^53] ps.
func fuzzTime(v uint64) units.Time {
	t := units.Time(v % (maxFuzzTime + 1))
	if v&(1<<63) != 0 {
		t = -t
	}
	return t
}

// fuzzTrace decodes fuzz input into a hop registry, spans and
// annotations. names is split on '|' into hop names (at least one hop);
// raw is consumed in 26-byte span records, and every fourth record also
// becomes an annotation.
func fuzzTrace(names string, raw []byte) ([]Hop, []Span, []Annotation) {
	var hops []Hop
	for i, n := range strings.Split(names, "|") {
		hops = append(hops, Hop{Name: n, Kind: Kind(i % 5)})
	}
	var spans []Span
	var anns []Annotation
	for len(raw) >= 26 {
		rec := raw[:26]
		raw = raw[26:]
		s := Span{
			Txn:   binary.LittleEndian.Uint64(rec[0:]),
			Start: fuzzTime(binary.LittleEndian.Uint64(rec[8:])),
			End:   fuzzTime(binary.LittleEndian.Uint64(rec[16:])),
			Hop:   HopID(int(rec[24]) % len(hops)),
			Cause: Cause(rec[25]),
		}
		spans = append(spans, s)
		if len(spans)%4 == 0 {
			anns = append(anns, Annotation{
				Name:     hops[s.Hop].Name,
				Start:    s.Start,
				End:      s.End,
				Open:     rec[25]&1 != 0,
				Severity: float64(s.Txn%1000) / 7,
				Baseline: float64(s.Start) / 3,
				Detector: names,
			})
		}
	}
	return hops, spans, anns
}

// FuzzTraceEvents holds the append encoder to the fmt reference byte for
// byte — hop names with quotes, backslashes, control and non-ASCII runes,
// any uint64 txn, out-of-range causes, negative durations and times up
// to 2^53 ps, annotations — and feeds both the raw fuzz bytes and the
// export to ReadTraceEvents, which must return or error, never panic.
// The seed corpus is in testdata/fuzz/FuzzTraceEvents.
func FuzzTraceEvents(f *testing.F) {
	f.Fuzz(func(t *testing.T, names string, raw []byte) {
		hops, spans, anns := fuzzTrace(names, raw)
		each := func(fn func(Span)) {
			for _, s := range spans {
				fn(s)
			}
		}
		var got, want bytes.Buffer
		if err := writeTraceEvents(&got, hops, each, anns); err != nil {
			t.Fatal(err)
		}
		if err := refWriteTraceEvents(&want, hops, each, anns); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.String(), want.String()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("export differs from the fmt reference at byte %d:\n got %.200q\nwant %.200q", i, g[i:], w[i:])
		}
		ReadTraceEvents(bytes.NewReader(raw))
		ReadTraceEvents(bytes.NewReader(got.Bytes()))
	})
}

// TestReadTraceEventsBadTid: thread metadata on a negative track, or on
// a track beyond anything the file could describe, is an error — not an
// index panic, and not a billion-entry hop table.
func TestReadTraceEventsBadTid(t *testing.T) {
	for _, tc := range []struct {
		name, doc string
	}{
		{"negative", `{"traceEvents":[{"ph":"M","name":"thread_name","tid":-3,"args":{"name":"x","kind":"channel"}}]}`},
		{"huge", `{"traceEvents":[{"ph":"M","name":"thread_name","tid":2000000000,"args":{"name":"x","kind":"channel"}}]}`},
		{"past event count", `{"traceEvents":[{"ph":"M","name":"thread_name","tid":2,"args":{"name":"x","kind":"channel"}}]}`},
		{"negative incidents", `{"traceEvents":[{"ph":"M","name":"thread_name","tid":-1,"args":{"name":"incidents","kind":"incidents"}}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ld, err := ReadTraceEvents(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("loaded %d hops from a malformed track id, want an error", len(ld.Hops))
			}
		})
	}
}
