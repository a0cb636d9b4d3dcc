package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one recorded trace entry — either a completed span (Dur > 0 or
// recorded via Span.End) or an instantaneous marker. Events are plain
// values: recording one copies it into the ring buffer and allocates
// nothing beyond the strings the caller already holds.
type Event struct {
	Name   string        // lifecycle phase: "broadcast", "local-train", "fold", …
	Round  int           // aggregation round, -1 when not applicable
	Worker int           // worker slot, -1 for coordinator-wide phases
	Start  time.Time     // wall-clock start
	Dur    time.Duration // 0 for instantaneous events
	Detail string        // optional free-form note ("reason=quorum", …)
	Remote bool          // ingested from another process's telemetry shipment
}

// Tracer records Events into a fixed-capacity ring buffer: the most
// recent events win, old ones are overwritten, and recording never
// blocks on I/O. All methods are no-ops on a nil receiver.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	next    int   // ring write cursor
	total   int64 // events ever recorded
	started time.Time
	lanes   map[int]string // worker slot → display name for trace lanes
}

// DefaultTraceEvents is the ring capacity NewTracer uses for capacity <= 0.
const DefaultTraceEvents = 4096

// NewTracer returns a tracer holding the last capacity events
// (DefaultTraceEvents when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{buf: make([]Event, 0, capacity), started: time.Now()}
}

// Record appends e to the ring.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.next = (t.next + 1) % cap(t.buf)
	}
	t.total++
	t.mu.Unlock()
}

// Event records an instantaneous marker.
func (t *Tracer) Event(name string, round, worker int, detail string) {
	if t == nil {
		return
	}
	t.Record(Event{Name: name, Round: round, Worker: worker, Start: time.Now(), Detail: detail})
}

// Span is an in-flight timed phase. The zero Span (from a nil Tracer) is
// a no-op, so callers never need to nil-check.
type Span struct {
	t      *Tracer
	name   string
	round  int
	worker int
	start  time.Time
}

// Span starts a timed phase; call End (or EndDetail) on the returned
// value. Safe for concurrent use — per-worker spans can run in parallel.
func (t *Tracer) Span(name string, round, worker int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, round: round, worker: worker, start: time.Now()}
}

// End records the span.
func (s Span) End() { s.EndDetail("") }

// EndDetail records the span with a free-form note.
func (s Span) EndDetail(detail string) {
	if s.t == nil {
		return
	}
	s.t.Record(Event{
		Name: s.name, Round: s.round, Worker: s.worker,
		Start: s.start, Dur: time.Since(s.start), Detail: detail,
	})
}

// EndErr records the span with the outcome of the phase it timed: no detail
// when err is nil, as End would, and "error: <err>" otherwise — the span an
// operator most needs to find in /trace is the one that failed.
func (s Span) EndErr(err error) {
	if err == nil {
		s.End()
		return
	}
	s.EndDetail("error: " + err.Error())
}

// Events returns the buffered events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// EventsSince returns the events recorded after position cursor (0 for
// "from the beginning") oldest-first, plus the cursor to pass next time.
// Events that aged out of the ring before this call are silently gone —
// the returned slice starts at the oldest still-buffered event.
func (t *Tracer) EventsSince(cursor int64) ([]Event, int64) {
	if t == nil {
		return nil, cursor
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	oldest := t.total - int64(len(t.buf))
	if cursor < oldest {
		cursor = oldest
	}
	if cursor >= t.total {
		return nil, t.total
	}
	out := make([]Event, 0, t.total-cursor)
	for i := cursor; i < t.total; i++ {
		out = append(out, t.buf[int(i%int64(cap(t.buf)))])
	}
	return out, t.total
}

// NameLane labels the trace lane for a worker slot; WriteChromeTrace
// emits the name as thread metadata so chrome://tracing shows "w0",
// "coordinator", … instead of bare thread IDs. Slot -1 is the
// coordinator lane.
func (t *Tracer) NameLane(worker int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.lanes == nil {
		t.lanes = make(map[int]string)
	}
	t.lanes[worker] = name
	t.mu.Unlock()
}

func (t *Tracer) laneNames() map[int]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]string, len(t.lanes))
	for k, v := range t.lanes {
		out[k] = v
	}
	return out
}

// Dropped returns how many events were overwritten by newer ones.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - int64(len(t.buf))
}

type jsonlEvent struct {
	Name    string `json:"name"`
	Round   int    `json:"round"`
	Worker  int    `json:"worker"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Detail  string `json:"detail,omitempty"`
	Remote  bool   `json:"remote,omitempty"`
}

// WriteJSONL writes the buffered events oldest-first, one JSON object per
// line, with nanosecond unix timestamps.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		je := jsonlEvent{
			Name: e.Name, Round: e.Round, Worker: e.Worker,
			StartNS: e.Start.UnixNano(), DurNS: e.Dur.Nanoseconds(), Detail: e.Detail,
			Remote: e.Remote,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}

type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the buffered events as a Chrome trace_event
// JSON document loadable in chrome://tracing (or ui.perfetto.dev). Spans
// become complete ("X") events; instantaneous records become instant
// ("i") events. Worker slots map to thread IDs so each worker gets its
// own lane; coordinator-wide phases land on tid 0. Lanes registered via
// NameLane come out as thread_name metadata, so a stitched fleet trace
// reads "coordinator" / "w0" / "w1" instead of bare thread IDs.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, 0, len(events))}
	lanes := t.laneNames()
	slots := make([]int, 0, len(lanes))
	for worker := range lanes {
		slots = append(slots, worker)
	}
	sort.Ints(slots)
	for _, worker := range slots {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   worker + 1,
			Args:  map[string]any{"name": lanes[worker]},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name:  e.Name,
			Cat:   "round",
			Phase: "X",
			TS:    float64(e.Start.UnixNano()) / 1e3,
			Dur:   float64(e.Dur.Nanoseconds()) / 1e3,
			PID:   1,
			TID:   e.Worker + 1, // -1 (coordinator) → lane 0
			Args:  map[string]any{"round": e.Round},
		}
		if e.Dur == 0 {
			ce.Phase = "i"
		}
		if e.Detail != "" {
			ce.Args["detail"] = e.Detail
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// String summarises the tracer state for logs.
func (t *Tracer) String() string {
	if t == nil {
		return "tracer(disabled)"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("tracer(%d/%d events, %d dropped)", len(t.buf), cap(t.buf), t.total-int64(len(t.buf)))
}
