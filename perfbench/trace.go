package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmtherm/internal/fleet"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

// span is one timed call into a layer. Spans of one round or request share
// Group; Parent is 0 for the benchmark's top-level calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  int    `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil or disabled tracer records nothing.
// Top-level spans are opened by the benchmark around its calls into the
// program. Child spans are opened by the wrappers around the interfaces the
// program calls back (telemetry source, batch predictor); their parent is the
// top-level span open on the same goroutine, or — for the program's own
// worker goroutines — the most recently opened top-level span.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[uint64]int // goroutine id → open top-level span id
	last  int            // most recently opened, still open, top-level span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[uint64]int)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// root opens a top-level span in group (0 starts a new group named after
// the span itself) and returns its id (0 when not recording).
func (t *tracer) root(name string, group int) int {
	if !t.enabled() {
		return 0
	}
	gid := goid()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if group == 0 {
		group = id
	}
	t.spans = append(t.spans, span{ID: id, Group: group, Name: name, Start: now, End: -1})
	t.open[gid] = id
	t.last = id
	return id
}

// child opens a span under the caller's open top-level span.
func (t *tracer) child(name string) int {
	if !t.enabled() {
		return 0
	}
	gid := goid()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.open[gid]
	if !ok {
		parent = t.last
	}
	group := 0
	if parent > 0 {
		group = t.spans[parent-1].Group
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: now, End: -1})
	return id
}

// end closes span id (a no-op for id 0).
func (t *tracer) end(id int) {
	if id == 0 || t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	if sp.Parent == 0 {
		for g, open := range t.open {
			if open == id {
				delete(t.open, g)
			}
		}
		if t.last == id {
			t.last = 0
		}
	}
}

// goid parses the calling goroutine's id from its stack header. It costs
// about a microsecond, which only traced runs pay.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// layerTime is one layer's total and self time over a set of spans.
type layerTime struct {
	Name        string
	Count       int
	TotalNs     int64
	SelfNs      int64
	MedianSelfN float64
}

// layerTimes aggregates closed spans by name: self time is each span's
// duration minus the part its children cover.
func layerTimes(spans []span) []layerTime {
	kids := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent > 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	byName := make(map[string]*layerTime)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		self := selfTime(interval{s.Start, s.End}, kids[s.ID])
		lt.Count++
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += self
		selfs[s.Name] = append(selfs[s.Name], float64(self))
	}
	out := make([]layerTime, 0, len(byName))
	for name, lt := range byName {
		lt.MedianSelfN = median(selfs[name])
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one JSON object per line.
func writeSpans(w io.Writer, workloadName string, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workloadName, s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// printLayerTimes prints the per-layer self-time table of a traced run.
func printLayerTimes(w io.Writer, workloadName string, spans []span) {
	fmt.Fprintf(w, "layer self time (%s, %d spans):\n", workloadName, len(spans))
	fmt.Fprintf(w, "  %-30s %9s %12s %12s %14s\n", "span", "count", "total_ms", "self_ms", "self_us_p50")
	for _, lt := range layerTimes(spans) {
		fmt.Fprintf(w, "  %-30s %9d %12.3f %12.3f %14.3f\n",
			lt.Name, lt.Count, float64(lt.TotalNs)/1e6, float64(lt.SelfNs)/1e6, lt.MedianSelfN/1e3)
	}
}

// timedSource wraps the telemetry source the controller advances each
// round and records how long each Advance took. The controller calls it
// from RunRound, on the goroutine that runs the round.
type timedSource struct {
	telemetry.Source
	tr    *tracer
	latMs []float64
}

func (s *timedSource) Advance(dtS float64, emit func(telemetry.Reading) bool) error {
	sp := s.tr.child("telemetry.advance")
	start := time.Now()
	err := s.Source.Advance(dtS, emit)
	s.latMs = append(s.latMs, ms(time.Since(start)))
	s.tr.end(sp)
	return err
}

// predictorStats counts what the wrapped batch predictor did. The
// controller may call it from several anchor workers at once.
type predictorStats struct {
	calls, cases, ns atomic.Int64
}

// timedPredictor wraps the ψ_stable batch predictor the controller fans
// anchor misses and placement candidates through (encode + scale + SVM
// kernel).
func timedPredictor(p fleet.BatchCasePredictor, tr *tracer, st *predictorStats) fleet.BatchCasePredictor {
	return func(cases []workload.Case) ([]float64, error) {
		sp := tr.child("anchor.predict")
		start := time.Now()
		out, err := p(cases)
		st.ns.Add(int64(time.Since(start)))
		tr.end(sp)
		st.calls.Add(1)
		st.cases.Add(int64(len(cases)))
		return out, err
	}
}
