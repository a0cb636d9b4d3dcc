package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"github.com/edgeml/edgetrain/obs"
)

// span is one timed interval at a layer boundary. Parent indexes the span
// that caused it (-1 for a root); Op is the operation (step or round) the
// span belongs to, the identifier its spans share.
type span struct {
	Name   string
	Detail string
	Op     int
	Lane   int
	Parent int
	Start  time.Duration // since the recorder's epoch
	Dur    time.Duration
}

// recorder keeps spans in memory until the run ends. begin/end nest through
// a stack, so it serves one goroutine; the fleet's concurrent spans come from
// the program's own tracer and are appended whole by fromEvents.
type recorder struct {
	epoch time.Time
	op    int
	spans []span
	stack []int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<15)}
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name, detail string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Detail: detail, Op: r.op, Parent: parent, Start: time.Since(r.epoch)})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	r.spans[id].Dur = time.Since(r.epoch) - r.spans[id].Start
	r.stack = r.stack[:len(r.stack)-1]
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, fn func()) time.Duration {
	id := r.begin(name, "")
	fn()
	r.end(id)
	return r.spans[id].Dur
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap one another
// (concurrent workers), so the covered part is the union of their intervals
// clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		end := s.Start + s.Dur
		for _, k := range kids {
			lo := max(spans[k].Start, edge)
			hi := min(spans[k].Start+spans[k].Dur, end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.Dur - covered
	}
	return self
}

// perOp sums the chosen quantity of every span with the given name, per
// operation, in milliseconds.
func perOp(spans []span, values []time.Duration, name string, ops int) []float64 {
	out := make([]float64, ops)
	for i, s := range spans {
		if s.Name == name && s.Op >= 0 && s.Op < ops {
			out[s.Op] += ms(values[i])
		}
	}
	return out
}

func durations(spans []span) []time.Duration {
	d := make([]time.Duration, len(spans))
	for i, s := range spans {
		d[i] = s.Dur
	}
	return d
}

// count returns how many spans of the name each operation recorded.
func count(spans []span, name string, ops int) []int {
	out := make([]int, ops)
	for _, s := range spans {
		if s.Name == name && s.Op >= 0 && s.Op < ops {
			out[s.Op]++
		}
	}
	return out
}

// fromEvents appends the spans the program's own tracer recorded, on the
// recorder's clock, one lane per worker slot. Workers with observability on
// also ship their spans to the coordinator, which files them again as remote;
// in one process those are duplicates and are skipped, as are instantaneous
// markers.
func (r *recorder) fromEvents(events []obs.Event) {
	for _, e := range events {
		if e.Dur == 0 || e.Remote {
			continue
		}
		r.spans = append(r.spans, span{Name: e.Name, Detail: e.Detail, Op: e.Round, Lane: e.Worker + 2, Parent: -1,
			Start: e.Start.Sub(r.epoch), Dur: e.Dur})
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as one Chrome trace file
// (chrome://tracing, ui.perfetto.dev).
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		e := chromeEvent{Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / float64(time.Microsecond), Dur: float64(s.Dur) / float64(time.Microsecond)}
		if s.Detail != "" {
			e.Args = map[string]string{"detail": s.Detail}
		}
		events = append(events, e)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
