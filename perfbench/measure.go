package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one named figure of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCount tallies one kind of operation.
type opCount struct{ attempted, failed int }

// report collects what one workload run measured and checked. Operation
// counters may be bumped from several goroutines.
type report struct {
	mu     sync.Mutex
	ops    map[string]*opCount
	checks []string // failed output checks, first few only
	nCheck int      // failed output checks in total
	e2e    map[string]metric
	layer  map[string]metric
	extra  map[string]metric // per-layer figures of layers this workload alone exercises
	notes  []string
}

func newReport() *report {
	return &report{
		ops:   make(map[string]*opCount),
		e2e:   make(map[string]metric),
		layer: make(map[string]metric),
		extra: make(map[string]metric),
	}
}

// op records one operation of kind; err != nil marks it failed.
func (r *report) op(kind string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
		r.noteFailure(fmt.Sprintf("%s: %v", kind, err))
	}
}

// fail records a failed output check that belongs to no single operation.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteFailure(fmt.Sprintf(format, args...))
}

func (r *report) noteFailure(msg string) {
	r.nCheck++
	if len(r.checks) < 10 {
		r.checks = append(r.checks, msg)
	}
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) totals() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

func (r *report) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nCheck == 0
}

// print writes the human-readable part of the report: operations by kind,
// notes and failed checks.
func (r *report) print(w io.Writer, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "operations (%s):\n", name)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-28s attempted %8d  failed %d\n", k, r.ops[k].attempted, r.ops[k].failed)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", c)
	}
	if r.nCheck > len(r.checks) {
		fmt.Fprintf(w, "FAILED CHECK: ... %d more\n", r.nCheck-len(r.checks))
	}
}

// cpuTime returns the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime returns the time, summed over the machine's CPUs, that the
// hypervisor kept them from running while they had work ("steal" in
// /proc/stat), or 0 where that is not reported. It slows the wall-clock
// figures, and on a shared host it is the largest source of their
// run-to-run spread: it picks the quiet windows, and each run prints it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// goStats is a sample of the runtime counters the per-layer allocation and
// GC figures are deltas of.
type goStats struct {
	allocObjs, allocBytes uint64
	gcCPU                 float64 // seconds
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocObjs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[2].Value.Float64()
	}
	return g
}

func (g goStats) sub(o goStats) goStats {
	return goStats{g.allocObjs - o.allocObjs, g.allocBytes - o.allocBytes, g.gcCPU - o.gcCPU}
}

// phase measures one measured phase: wall clock, process CPU and runtime
// counters, less the time the benchmark spends in its own output checks.
type phase struct {
	wall0      time.Time
	cpu0       time.Duration
	steal0     time.Duration
	go0        goStats
	checkWall  time.Duration
	checkCPU   time.Duration
	wall, cpu  time.Duration
	steal      time.Duration // the machine's steal time over the phase, all CPUs
	goDelta    goStats
	checkStart time.Time
	checkCPU0  time.Duration
}

// startPhase forces a GC so every phase starts from the same heap state.
func startPhase() *phase {
	runtime.GC()
	return &phase{wall0: time.Now(), cpu0: cpuTime(), steal0: stealTime(), go0: readGoStats()}
}

// pauseForCheck and resumeAfterCheck bracket benchmark-side checking inside
// a measured phase; that time is taken out of the phase's wall and CPU.
func (p *phase) pauseForCheck() {
	p.checkStart = time.Now()
	p.checkCPU0 = cpuTime()
}

func (p *phase) resumeAfterCheck() {
	p.checkWall += time.Since(p.checkStart)
	p.checkCPU += cpuTime() - p.checkCPU0
}

// elapsed returns the phase's wall clock and process CPU so far, less the
// benchmark's own checks, and the machine's steal time so far.
func (p *phase) elapsed() (wall, cpu, steal time.Duration) {
	return time.Since(p.wall0) - p.checkWall, cpuTime() - p.cpu0 - p.checkCPU, stealTime() - p.steal0
}

func (p *phase) stop() {
	p.wall, p.cpu, p.steal = p.elapsed()
	p.goDelta = readGoStats().sub(p.go0)
}

// stealNote describes the machine's steal time over a phase.
func stealNote(p *phase) string {
	return fmt.Sprintf("%.1f%% of the time of %d CPUs", 100*p.steal.Seconds()/(p.wall.Seconds()*float64(runtime.NumCPU())), runtime.NumCPU())
}

// window is one stretch of a measured phase that holds the same work as
// every other: a fixed number of round-loop iterations, or of requests.
// The timing and cost metrics are medians over a phase's quiet windows
// (see quiet).
type window struct {
	wall, cpu         time.Duration
	steal             time.Duration // the machine's steal time, all CPUs
	hosts             int           // host-rounds
	reads             int           // requests: snapshot reads or HTTP requests
	readWall, readCPU time.Duration // time spent in the reads alone
	roundMs, reqMs    []float64     // latencies of the rounds and requests in the window
}

// stealShare is the share of the machine's CPU time the hypervisor kept
// from it during the window.
func (w window) stealShare() float64 {
	return w.steal.Seconds() / (w.wall.Seconds() * float64(runtime.NumCPU()))
}

// quiet returns the windows in which the hypervisor took the least CPU
// time from the machine: the quarter with the lowest steal share, and every
// window that ties with the highest of them. On a host the machine does not
// share, or in a run without steal, that is every window. The other tenants
// of a shared host take from 1% to 30% of its CPUs' time for tens of
// seconds at a stretch; the quiet windows measure the program while they
// take least. ws is not modified.
func quiet(ws []window) []window {
	if len(ws) == 0 {
		return nil
	}
	shares := make([]float64, len(ws))
	for i, w := range ws {
		shares[i] = w.stealShare()
	}
	limit := sortedCopy(shares)[max(len(ws)/4, 1)-1]
	var out []window
	for i, w := range ws {
		if shares[i] <= limit {
			out = append(out, w)
		}
	}
	return out
}

// maxSteal returns the highest steal share among ws.
func maxSteal(ws []window) float64 {
	m := 0.0
	for _, w := range ws {
		m = max(m, w.stealShare())
	}
	return m
}

// windowMedian returns the median over ws of f. NaN when ws is empty.
func windowMedian(ws []window, f func(window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// pooledMedian returns the median of the samples f picks from every
// window of ws.
func pooledMedian(ws []window, f func(window) []float64) float64 {
	var xs []float64
	for _, w := range ws {
		xs = append(xs, f(w)...)
	}
	return median(xs)
}

// liveHeapMB forces a GC and returns the live heap in MB. Callers keep the
// measured objects reachable past the call (runtime.KeepAlive). heap_mb is
// the live heap at the end of the measured phase less the live heap once
// the inputs are generated, before set-up, so it holds what the program
// keeps and not the benchmark's own inputs.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupTimer accumulates the time spent in the program's own set-up calls,
// per layer, across the repeated set-ups of one run.
type setupTimer struct {
	tr     *tracer
	layers map[string][]float64 // layer → seconds per set-up
	total  []float64            // seconds per set-up
	cur    float64
}

func newSetupTimer(tr *tracer) *setupTimer {
	return &setupTimer{tr: tr, layers: make(map[string][]float64)}
}

// setupSpan names the span of each set-up layer after the calls it times.
var setupSpan = map[string]string{
	"dataset.build_s": "dataset.Build",
	"core.train_s":    "core.TrainStable",
	"fleet.build_s":   "fleet.New",
	"fleet.warm_s":    "fleet.RunRound.warm-up",
}

// time runs fn as set-up work of layer and adds its duration to the current
// set-up.
func (s *setupTimer) time(layer string, fn func() error) error {
	sp := s.tr.root(setupSpan[layer], 0)
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	s.tr.end(sp)
	s.cur += d
	l := s.layers[layer]
	if n := len(s.total); len(l) == n {
		l = append(l, d)
	} else {
		l[n] += d
	}
	s.layers[layer] = l
	return err
}

// done closes the current set-up.
func (s *setupTimer) done() {
	s.total = append(s.total, s.cur)
	s.cur = 0
	for k, l := range s.layers {
		if len(l) < len(s.total) {
			s.layers[k] = append(l, 0)
		}
	}
}

// median of the per-set-up totals, and of one layer.
func (s *setupTimer) medianTotal() float64 { return median(s.total) }
func (s *setupTimer) medianLayer(layer string) float64 {
	if l, ok := s.layers[layer]; ok {
		return median(l)
	}
	return 0
}

// finite reports whether x is a usable number.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
