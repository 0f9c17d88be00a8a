package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the repository's
// public functions. Spans stay in memory and are written once, when the run
// ends. A nil *tracer records nothing, so untraced runs pay only a nil
// check per call site.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

// span is one timed call: name is "<module>.<function>", parent the id of
// the span that caused it (0 for none) and req the operation it belongs to
// (a training step or a serving request; 0 for set-up and probes).
type span struct {
	id, parent, req int64
	name            string
	start, end      time.Duration // since t0
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{id: t.next, parent: parent, req: req, name: name, start: now, end: -1})
	return t.next
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Spans are appended in id order, so id-1 is the index.
	t.spans[id-1].end = now
}

// do runs fn inside a span; fn receives the span id to parent its children.
func (t *tracer) do(name string, parent, req int64, fn func(id int64) error) error {
	id := t.begin(name, parent, req)
	err := fn(id)
	t.end(id)
	return err
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// module is the layer a span belongs to: its name up to the first dot.
func (s span) module() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children may overlap; the union
// is subtracted once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered time.Duration
		lo, hi := s.start, s.start
		for _, k := range kids {
			a, b := max(k.start, s.start), min(k.end, s.end)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		out[s.id] = s.dur() - covered
	}
	return out
}

// durations returns the durations of the spans with the given name, in
// milliseconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// the format simgpu.WriteChromeTrace emits, so both load in Perfetto.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`  // microseconds
	Dur  float64          `json:"dur"` // microseconds
	PID  int              `json:"pid"`
	TID  int64            `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome writes the spans as a trace-event array. Each operation (req)
// gets its own row so concurrent serving requests do not stack.
func writeChrome(w io.Writer, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.name,
			Cat:  s.module(),
			Ph:   "X",
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			PID:  1,
			TID:  s.req,
			Args: map[string]int64{"id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	return json.NewEncoder(w).Encode(events)
}
