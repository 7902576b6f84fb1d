// Series export: the full harvested time series in three formats —
// OpenMetrics text (for anything that scrapes Prometheus exposition),
// JSON (the lossless interchange format cmd/chipletstat re-reads), and
// CSV in long form (one row per window x instrument, ready for pandas or
// gnuplot). Export happens after a run, off the hot path; none of this
// code is allocation-gated.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/units"
)

// Source is the read side of a harvested series: both the live *Registry
// and a *Dump loaded from JSON implement it, so the reports and exporters
// work identically during a run and offline.
type Source interface {
	// Window is the nominal harvest interval.
	Window() units.Time
	// Total and FirstWindow bound the valid window indices:
	// [FirstWindow, Total).
	Total() int
	FirstWindow() int
	// WindowStart and WindowEnd report window w's actual bounds.
	WindowStart(w int) units.Time
	WindowEnd(w int) units.Time
	// NumInstruments and Desc enumerate the instruments.
	NumInstruments() int
	Desc(i int) Desc
	// Value reports instrument id's sample for window w.
	Value(id ID, w int) float64
}

// InstrumentDump is one instrument's descriptor and live samples.
type InstrumentDump struct {
	Resource string    `json:"resource"`
	Metric   string    `json:"metric"`
	Family   string    `json:"family"`
	Unit     string    `json:"unit"`
	Kind     string    `json:"kind"`
	Samples  []float64 `json:"samples"`
}

// Dump is a self-contained snapshot of a harvested series — the JSON
// interchange form. It implements Source.
type Dump struct {
	// WindowPS is the nominal harvest interval in picoseconds.
	WindowPS int64 `json:"window_ps"`
	// First is the index of the oldest retained window; Samples[i] holds
	// windows First..First+len(Samples)-1.
	First int `json:"first_window"`
	// Dropped counts windows overwritten before the snapshot.
	Dropped int `json:"dropped_windows"`
	// StartsPS and EndsPS are the retained windows' actual bounds.
	StartsPS []int64 `json:"starts_ps"`
	EndsPS   []int64 `json:"ends_ps"`
	// Instruments carry the per-instrument series, in registration order.
	Instruments []InstrumentDump `json:"instruments"`
}

// Dump snapshots the registry's live windows into the interchange form.
func (r *Registry) Dump() *Dump {
	first := r.FirstWindow()
	n := r.Total() - first
	d := &Dump{
		WindowPS: int64(r.window),
		First:    first,
		Dropped:  r.DroppedWindows(),
		StartsPS: make([]int64, n),
		EndsPS:   make([]int64, n),
	}
	for w := 0; w < n; w++ {
		d.StartsPS[w] = int64(r.WindowStart(first + w))
		d.EndsPS[w] = int64(r.WindowEnd(first + w))
	}
	d.Instruments = make([]InstrumentDump, len(r.descs))
	for i, desc := range r.descs {
		samples := make([]float64, n)
		for w := 0; w < n; w++ {
			samples[w] = r.Value(ID(i), first+w)
		}
		d.Instruments[i] = InstrumentDump{
			Resource: desc.Resource, Metric: desc.Metric,
			Family: desc.Family, Unit: desc.Unit,
			Kind: desc.Kind.String(), Samples: samples,
		}
	}
	return d
}

// Window implements Source.
func (d *Dump) Window() units.Time { return units.Time(d.WindowPS) }

// Total implements Source.
func (d *Dump) Total() int { return d.First + len(d.StartsPS) }

// FirstWindow implements Source.
func (d *Dump) FirstWindow() int { return d.First }

// WindowStart implements Source.
func (d *Dump) WindowStart(w int) units.Time { return units.Time(d.StartsPS[w-d.First]) }

// WindowEnd implements Source.
func (d *Dump) WindowEnd(w int) units.Time { return units.Time(d.EndsPS[w-d.First]) }

// NumInstruments implements Source.
func (d *Dump) NumInstruments() int { return len(d.Instruments) }

// Desc implements Source.
func (d *Dump) Desc(i int) Desc {
	in := d.Instruments[i]
	k, _ := KindFromString(in.Kind)
	return Desc{Resource: in.Resource, Metric: in.Metric, Family: in.Family, Unit: in.Unit, Kind: k}
}

// Value implements Source.
func (d *Dump) Value(id ID, w int) float64 { return d.Instruments[id].Samples[w-d.First] }

// WriteJSON writes the dump as indented JSON.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ReadJSON loads a dump written by WriteJSON. It rejects any dump a
// registry could not have written, so the reports and exporters can
// index it without further checks.
func ReadJSON(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("metrics: decoding dump: %w", err)
	}
	if d.WindowPS <= 0 {
		return nil, fmt.Errorf("metrics: dump has window %d ps, want > 0", d.WindowPS)
	}
	if len(d.EndsPS) != len(d.StartsPS) {
		return nil, fmt.Errorf("metrics: dump has %d window starts but %d ends", len(d.StartsPS), len(d.EndsPS))
	}
	if d.First < 0 || d.First > math.MaxInt-len(d.StartsPS) {
		return nil, fmt.Errorf("metrics: dump has first window %d", d.First)
	}
	for i, start := range d.StartsPS {
		if start < 0 || d.EndsPS[i] < start {
			return nil, fmt.Errorf("metrics: window %d has bounds [%d,%d) ps", d.First+i, start, d.EndsPS[i])
		}
	}
	for _, in := range d.Instruments {
		if len(in.Samples) != len(d.StartsPS) {
			return nil, fmt.Errorf("metrics: instrument %s/%s has %d samples for %d windows",
				in.Resource, in.Metric, len(in.Samples), len(d.StartsPS))
		}
		if _, ok := KindFromString(in.Kind); !ok {
			return nil, fmt.Errorf("metrics: instrument %s/%s has unknown kind %q", in.Resource, in.Metric, in.Kind)
		}
	}
	return &d, nil
}

// sanitizeOM maps a metric or label fragment to the OpenMetrics charset.
func sanitizeOM(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// omUnit maps internal unit names to OpenMetrics unit suffixes.
func omUnit(unit string) string {
	switch unit {
	case "ps":
		return "picoseconds"
	default:
		return sanitizeOM(unit)
	}
}

// WriteOpenMetrics writes the full series as OpenMetrics exposition text:
// one metric family per canonical metric name, one timestamped sample per
// (resource, window). Each family's TYPE/UNIT header appears exactly once
// (OpenMetrics forbids repeats), with every resource's samples grouped
// under it in registration order. Counters are exported cumulatively (the
// running sum of window deltas since the first retained window) under a
// _total suffix, gauges as-is; timestamps are window ends in simulated
// seconds.
func WriteOpenMetrics(w io.Writer, s Source) error {
	// Group instruments by metric family, preserving first-seen order.
	type group struct {
		metric string
		kind   Kind
		unit   string
		ids    []ID
	}
	var groups []*group
	byMetric := map[string]*group{}
	for i := 0; i < s.NumInstruments(); i++ {
		d := s.Desc(i)
		g := byMetric[d.Metric]
		if g == nil {
			g = &group{metric: d.Metric, kind: d.Kind, unit: d.Unit}
			byMetric[d.Metric] = g
			groups = append(groups, g)
		}
		g.ids = append(g.ids, ID(i))
	}
	for _, g := range groups {
		name := "chiplet_" + sanitizeOM(g.metric)
		unit := omUnit(g.unit)
		kind := "gauge"
		suffix := ""
		if g.kind == KindCounter {
			kind = "counter"
			suffix = "_total"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n# UNIT %s %s\n", name, kind, name, unit); err != nil {
			return err
		}
		for _, id := range g.ids {
			d := s.Desc(int(id))
			cum := 0.0
			for win := s.FirstWindow(); win < s.Total(); win++ {
				v := s.Value(id, win)
				if g.kind == KindCounter {
					cum += v
					v = cum
				}
				_, err := fmt.Fprintf(w, "%s%s{resource=%q,family=%q} %g %.9f\n",
					name, suffix, d.Resource, d.Family, v, s.WindowEnd(win).Seconds())
				if err != nil {
					return err
				}
			}
		}
	}
	_, err := fmt.Fprintln(w, "# EOF")
	return err
}

// WriteCSV writes the full series in long form: one row per
// (window, instrument), with window bounds in microseconds of simulated
// time. Counters carry the per-window delta, gauges the sample.
func WriteCSV(w io.Writer, s Source) error {
	if _, err := fmt.Fprintln(w, "window,start_us,end_us,resource,family,metric,kind,unit,value"); err != nil {
		return err
	}
	for win := s.FirstWindow(); win < s.Total(); win++ {
		for i := 0; i < s.NumInstruments(); i++ {
			d := s.Desc(i)
			_, err := fmt.Fprintf(w, "%d,%.3f,%.3f,%s,%s,%s,%s,%s,%g\n",
				win, s.WindowStart(win).Microseconds(), s.WindowEnd(win).Microseconds(),
				d.Resource, d.Family, d.Metric, d.Kind, d.Unit, s.Value(ID(i), win))
			if err != nil {
				return err
			}
		}
	}
	return nil
}
