// Chrome trace_event JSON export/import. The format is the subset of the
// Trace Event Format that Perfetto and chrome://tracing load: complete
// ("X") duration events with microsecond ts/dur, one thread (track) per
// registered hop, thread names carried by "M" metadata events.
//
// Timestamps are written as float microseconds with the shortest exact
// decimal representation. Simulated times are picosecond integers far
// below 2^53, so the float64 round trip is exact: reading a trace back
// reproduces every span to the picosecond.
//
// A trace may additionally carry one annotation track (thread kind
// "incidents"): incident intervals from the online anomaly detectors
// overlaid on the span timeline, written as complete events carrying
// resource/severity args plus instant onset/clear markers. The fused
// file is the CHIPSIM-style joined view — utilization incidents over the
// activity trace — in a single Perfetto tab.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/units"
)

const psPerMicro = 1e6

// incidentTrackKind marks the annotation track's thread metadata, so
// readers can tell incident intervals from hop spans.
const incidentTrackKind = "incidents"

// exactMicros bounds appendMicros' integer path: below 10^15 ps the
// exact decimal t/10^6 has at most 15 significant digits, so it is the
// shortest decimal that round-trips float64(t)/psPerMicro — the bytes
// strconv.AppendFloat would write.
const exactMicros = 1e15

// appendMicros appends a picosecond time as exact float microseconds,
// byte-identical to strconv.AppendFloat(b, float64(t)/psPerMicro, 'f',
// -1, 64) (FuzzTraceEvents checks it against that reference).
func appendMicros(b []byte, t units.Time) []byte {
	if t <= -exactMicros || t >= exactMicros {
		return strconv.AppendFloat(b, float64(t)/psPerMicro, 'f', -1, 64)
	}
	u := uint64(t)
	if t < 0 {
		b = append(b, '-')
		u = uint64(-t)
	}
	b = strconv.AppendUint(b, u/psPerMicro, 10)
	frac := u % psPerMicro
	if frac == 0 {
		return b
	}
	// Six fraction digits, trailing zeros trimmed.
	var d [7]byte
	d[0] = '.'
	for i := 6; i > 0; i-- {
		d[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := 7
	for d[n-1] == '0' {
		n--
	}
	return append(b, d[:n]...)
}

// quotedCauses holds each cause name as the JSON string a span event
// carries, so the span encoder copies it instead of quoting per span.
var quotedCauses = func() (q [NumCauses]string) {
	for i := range q {
		q[i] = strconv.Quote(causeNames[i])
	}
	return q
}()

// appendSpan appends one span's complete ("X") event, preceded by the
// ",\n" separator.
func appendSpan(b []byte, s Span) []byte {
	b = append(b, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":"...)
	b = strconv.AppendInt(b, int64(s.Hop)+1, 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, s.Start)
	b = append(b, `,"dur":`...)
	b = appendMicros(b, s.Duration())
	b = append(b, `,"name":`...)
	if int(s.Cause) < NumCauses {
		b = append(b, quotedCauses[s.Cause]...)
	} else {
		b = strconv.AppendQuote(b, s.Cause.String())
	}
	b = append(b, `,"args":{"txn":`...)
	b = strconv.AppendUint(b, s.Txn, 10)
	return append(b, "}}"...)
}

// Annotation is one incident marker on the export's annotation track: an
// interval [Start, End) named for the congested resource, carrying the
// detector's verdict as args. Open annotations (incidents that never
// cleared) extend to the timeline edge and write no clear marker.
type Annotation struct {
	// Name labels the interval in the timeline (the incident's resource,
	// e.g. "umc0/rd"); Resource repeats it in the event args so tooltips
	// carry it even when the UI elides names.
	Name     string     `json:"name"`
	Start    units.Time `json:"start_ps"`
	End      units.Time `json:"end_ps"`
	Open     bool       `json:"open,omitempty"`
	Severity float64    `json:"severity"`
	Baseline float64    `json:"baseline"`
	Detector string     `json:"detector"`
}

// writeTraceEvents is the shared exporter: hop metadata, every span, and
// (when anns is non-empty) the incident annotation track.
func writeTraceEvents(w io.Writer, hops []Hop, each func(func(Span)), anns []Annotation) error {
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
	// Spans number in the hundreds of thousands: each is appended into
	// one reused scratch slice, so the export allocates nothing per span.
	var scratch []byte
	each(func(s Span) {
		scratch = appendSpan(scratch[:0], s)
		bw.Write(scratch)
	})
	for _, a := range anns {
		fmt.Fprintf(bw, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,"+
			"\"args\":{\"resource\":%s,\"severity\":%g,\"baseline\":%g,\"detector\":%q,\"open\":%v}}",
			annTid, appendMicros(nil, a.Start), appendMicros(nil, a.End-a.Start), strconv.Quote(a.Name),
			strconv.Quote(a.Name), a.Severity, a.Baseline, a.Detector, a.Open)
		fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%s,\"args\":{\"resource\":%s,\"severity\":%g}}",
			annTid, appendMicros(nil, a.Start), strconv.Quote("onset "+a.Name), strconv.Quote(a.Name), a.Severity)
		if !a.Open {
			fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%s,\"args\":{\"resource\":%s,\"severity\":%g}}",
				annTid, appendMicros(nil, a.End), strconv.Quote("clear "+a.Name), strconv.Quote(a.Name), a.Severity)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteTraceEvents streams the span ring as Chrome trace_event JSON:
// one process, one track per hop (tid = hop id + 1), one complete event
// per span named by its cause, with the transaction id in args.
func (t *Tracer) WriteTraceEvents(w io.Writer) error {
	return writeTraceEvents(w, t.hops, t.EachSpan, nil)
}

// WriteTraceEventsAnnotated is WriteTraceEvents plus an incident
// annotation track: each annotation becomes a complete event on the
// "incidents" thread (onset/clear instant markers included), overlaid on
// the span timeline in the same file. anomaly.WriteFusedTraceEvents
// builds the annotations from a monitor's incident list.
func (t *Tracer) WriteTraceEventsAnnotated(w io.Writer, anns []Annotation) error {
	return writeTraceEvents(w, t.hops, t.EachSpan, anns)
}

// Loaded is a trace read back from trace_event JSON: the hop registry
// reconstructed from track metadata, every span, and any incident
// annotations the file carried.
type Loaded struct {
	Hops        []Hop
	Spans       []Span
	Annotations []Annotation
}

// WriteTraceEvents re-exports the loaded trace (with its annotations),
// so offline tools can rewrite a trace file.
func (l *Loaded) WriteTraceEvents(w io.Writer) error {
	return writeTraceEvents(w, l.Hops, func(fn func(Span)) {
		for _, s := range l.Spans {
			fn(s)
		}
	}, l.Annotations)
}

// ReadTraceEvents parses trace_event JSON produced by WriteTraceEvents.
// Unknown event phases are skipped so hand-edited traces still load;
// span events with unknown cause names or tracks, and track metadata with
// a negative tid or one past the file's event count, are an error: a
// malformed file never panics the reader. Events on
// a track whose metadata kind is "incidents" are parsed as annotations,
// not spans.
func ReadTraceEvents(r io.Reader) (*Loaded, error) {
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Name string  `json:"name"`
			Args struct {
				Name     string  `json:"name"`
				Kind     string  `json:"kind"`
				Txn      uint64  `json:"txn"`
				Resource string  `json:"resource"`
				Severity float64 `json:"severity"`
				Baseline float64 `json:"baseline"`
				Detector string  `json:"detector"`
				Open     bool    `json:"open"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: parse trace_event JSON: %w", err)
	}
	ld := &Loaded{}
	annTids := map[int]bool{}
	hop := func(tid int) (HopID, error) {
		id := tid - 1
		if id < 0 || id >= len(ld.Hops) {
			return 0, fmt.Errorf("trace: event on unregistered track tid=%d", tid)
		}
		return HopID(id), nil
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" || ev.Tid == 0 {
				continue
			}
			// A well-formed file has one metadata event per track, so a
			// tid beyond the event count names no track: it would only
			// pad the hop table with empty hops.
			if ev.Tid < 0 || ev.Tid > len(doc.TraceEvents) {
				return nil, fmt.Errorf("trace: thread metadata for invalid track tid=%d", ev.Tid)
			}
			if ev.Args.Kind == incidentTrackKind {
				annTids[ev.Tid] = true
				continue
			}
			for len(ld.Hops) < ev.Tid {
				ld.Hops = append(ld.Hops, Hop{})
			}
			h := &ld.Hops[ev.Tid-1]
			h.Name = ev.Args.Name
			if k, ok := KindFromString(ev.Args.Kind); ok {
				h.Kind = k
			}
		case "X":
			start := units.Time(math.Round(ev.Ts * psPerMicro))
			dur := units.Time(math.Round(ev.Dur * psPerMicro))
			if annTids[ev.Tid] {
				ld.Annotations = append(ld.Annotations, Annotation{
					Name:     ev.Name,
					Start:    start,
					End:      start + dur,
					Open:     ev.Args.Open,
					Severity: ev.Args.Severity,
					Baseline: ev.Args.Baseline,
					Detector: ev.Args.Detector,
				})
				continue
			}
			cause, ok := CauseFromString(ev.Name)
			if !ok {
				return nil, fmt.Errorf("trace: unknown span cause %q", ev.Name)
			}
			id, err := hop(ev.Tid)
			if err != nil {
				return nil, err
			}
			ld.Spans = append(ld.Spans, Span{
				Txn:   ev.Args.Txn,
				Start: start,
				End:   start + dur,
				Hop:   id,
				Cause: cause,
			})
		}
	}
	sort.SliceStable(ld.Spans, func(i, j int) bool { return ld.Spans[i].Start < ld.Spans[j].Start })
	return ld, nil
}

// SpansInWindow reports the loaded spans overlapping [start, end) — the
// offline counterpart of Tracer.SpansInWindow, so a trace on disk can be
// fused with a metrics window after the run (chiplettrace -from/-to).
func (l *Loaded) SpansInWindow(start, end units.Time) []Span {
	var out []Span
	for _, s := range l.Spans {
		if s.Start >= end {
			break // spans are sorted by start; nothing later can overlap
		}
		if s.End > start {
			out = append(out, s)
		}
	}
	return out
}

// Window restricts the loaded trace to the spans overlapping [start, end),
// keeping the hop registry and annotations, so every Loaded report works
// on one harvest window's slice of the flight.
func (l *Loaded) Window(start, end units.Time) *Loaded {
	return &Loaded{Hops: l.Hops, Spans: l.SpansInWindow(start, end), Annotations: l.Annotations}
}
