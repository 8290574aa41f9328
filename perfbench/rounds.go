package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"vmtherm/internal/fleet"
)

// roundLoop drives a controller in closed-loop rounds: each round starts
// when the previous iteration ends. After every round a consumer reads the
// published snapshot — every host's Δ_gap-ahead prediction, uncertainty
// and latest reading in pages of page hosts, then the hotspot list — and
// those reads are the workload's requests. The benchmark then checks the
// hotspot list against its own recomputation and grades the predictions of
// lag rounds ago against the reference temperature at their target time.
type roundLoop struct {
	ctl  *fleet.Controller
	ids  []string // hosts in the order reads and references use
	page int
	tr   *tracer
	rep  *report
	pred *predictorStats
	// src is the wrapped telemetry source, nil for simulated fleets (whose
	// source the controller builds itself).
	src *timedSource
	// ref fills dst (indexed like ids) with the reference temperature at
	// source time atS; NaN marks a host that is not graded.
	ref func(atS float64, dst []float64) error
	// step runs the workload's own per-round operations (churn, checkpoints)
	// in group; it reports false when the workload's inputs are used up.
	step func(group int) (bool, error)
	// gapS is Δ_gap: a prediction read at source time t targets t + gapS.
	gapS float64
	// perWindow is the number of iterations in one window: enough for a
	// fifth of a second or more, so a window's steal time (read in 10-ms
	// ticks) tells a stolen window from a quiet one.
	perWindow int

	ring     [][]float64 // predictions of the last lag+1 rounds
	ringTime []float64   // the source time each ring entry was read at
	refBuf   []float64
	unc, cur []float64 // uncertainty and latest reading, as read this round
	hotBuf   []fleet.Hotspot
	hotWant  []fleet.Hotspot
}

// loopResult is what one measured phase of roundLoop recorded.
type loopResult struct {
	ph                        *phase
	perWindow                 int
	rounds, hostRounds, reads int
	roundMs, controlMs        []float64
	advanceMs                 []float64 // Latency − ControlLatency
	reqMs                     []float64
	hits, misses, reanchored  int
	drained, discarded        int
	evicted                   int
	sessionsLive              int
	predCases                 int64
	predNs                    int64
	streamApplied             int64
	streamDeferred            int64
	maeSum                    float64
	maeN                      int
	// windows holds the phase's complete windows of perWindow
	// iterations; cur is the one being filled, which started when the phase
	// had run curWall and curCPU and the machine had curSteal.
	windows                   []window
	cur                       window
	curWall, curCPU, curSteal time.Duration
}

func (l *roundLoop) init(lag int) {
	l.ring = make([][]float64, lag+1)
	for i := range l.ring {
		l.ring[i] = make([]float64, len(l.ids))
	}
	l.ringTime = make([]float64, lag+1)
	l.refBuf = make([]float64, len(l.ids))
	l.unc = make([]float64, len(l.ids))
	l.cur = make([]float64, len(l.ids))
}

// run measures whole iterations until seconds have passed.
func (l *roundLoop) run(seconds float64) (*loopResult, error) {
	res := &loopResult{perWindow: l.perWindow}
	applied0, _, deferred0, _ := l.ctl.StreamTotals()
	if l.src != nil {
		l.src.latMs = l.src.latMs[:0]
	}
	// Rounds graded in this phase must have been read in this phase.
	for i := range l.ringTime {
		l.ringTime[i] = math.NaN()
	}
	ph := startPhase()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		more, err := l.iterate(res, ph)
		if err != nil {
			return nil, err
		}
		if res.rounds%l.perWindow == 0 {
			res.closeWindow(ph)
		}
		if !more {
			l.rep.note("inputs used up after %d rounds; phase ended early", res.rounds)
			break
		}
	}
	if len(res.windows) == 0 {
		res.closeWindow(ph) // a phase shorter than one window is one window
	}
	ph.stop()
	res.ph = ph
	applied1, _, deferred1, _ := l.ctl.StreamTotals()
	res.streamApplied = applied1 - applied0
	res.streamDeferred = deferred1 - deferred0
	if l.src != nil {
		res.advanceMs = append([]float64(nil), l.src.latMs...)
	}
	return res, nil
}

// ramp runs n iterations untimed, so the measured phase starts in the
// workload's steady state. Its operations are counted and checked like the
// measured ones.
func (l *roundLoop) ramp(n int) error {
	res, ph := &loopResult{}, startPhase()
	for i := range l.ringTime {
		l.ringTime[i] = math.NaN()
	}
	for i := 0; i < n; i++ {
		if more, err := l.iterate(res, ph); err != nil || !more {
			return err
		}
	}
	return nil
}

// closeWindow ends the current window at the phase's present time.
func (res *loopResult) closeWindow(ph *phase) {
	wall, cpu, steal := ph.elapsed()
	res.cur.wall, res.cur.cpu, res.cur.steal = wall-res.curWall, cpu-res.curCPU, steal-res.curSteal
	res.windows = append(res.windows, res.cur)
	res.cur = window{}
	res.curWall, res.curCPU, res.curSteal = wall, cpu, steal
}

func (l *roundLoop) iterate(res *loopResult, ph *phase) (bool, error) {
	group := l.tr.root("fleet.RunRound", 0)
	cases0, ns0 := l.pred.cases.Load(), l.pred.ns.Load()
	start := time.Now()
	rr, err := l.ctl.RunRound()
	wall := time.Since(start)
	l.tr.end(group)
	l.rep.op("round", err)
	if err != nil {
		return false, fmt.Errorf("round %d: %w", res.rounds+1, err)
	}
	res.predCases += l.pred.cases.Load() - cases0
	res.predNs += l.pred.ns.Load() - ns0
	res.rounds++
	res.hostRounds += rr.Hosts
	res.cur.hosts += rr.Hosts
	res.roundMs = append(res.roundMs, ms(wall))
	res.cur.roundMs = append(res.cur.roundMs, ms(wall))
	res.controlMs = append(res.controlMs, ms(rr.ControlLatency))
	if l.src == nil {
		res.advanceMs = append(res.advanceMs, ms(rr.Latency-rr.ControlLatency))
	}
	res.hits += rr.AnchorHits
	res.misses += rr.AnchorMisses
	res.reanchored += rr.Reanchored
	res.drained += rr.TelemetryDrained
	res.discarded += rr.DiscardedHosts
	res.evicted += rr.Evicted
	res.sessionsLive = rr.SessionsLive

	// The consumer's reads of the freshly published round.
	slot := rr.Round % len(l.ring)
	preds := l.ring[slot]
	var simT float64
	readCPU0 := cpuTime()
	for lo := 0; lo < len(l.ids); lo += l.page {
		hi := min(lo+l.page, len(l.ids))
		sp := l.tr.root("fleet.ViewSnapshot.hosts", group)
		t0 := time.Now()
		var round int
		l.ctl.ViewSnapshot(func(s *fleet.Snapshot) {
			round, simT = s.Round, s.SimTimeS
			for i := lo; i < hi; i++ {
				id := l.ids[i]
				v, ok := s.Predicted[id]
				if !ok {
					v = math.NaN()
				}
				preds[i] = v
				l.unc[i] = s.Uncertainty[id]
				l.cur[i] = s.Latest[id].TempC
			}
		})
		d := time.Since(t0)
		res.reqMs = append(res.reqMs, ms(d))
		res.cur.reqMs = append(res.cur.reqMs, ms(d))
		res.cur.readWall += d
		l.tr.end(sp)
		var err error
		if round != rr.Round {
			err = fmt.Errorf("snapshot round %d after round %d", round, rr.Round)
		}
		l.rep.op("read.hosts", err)
		res.reads++
		res.cur.reads++
	}
	sp := l.tr.root("fleet.ViewSnapshot.hotspots", group)
	t0 := time.Now()
	var threshold float64
	l.ctl.ViewSnapshot(func(s *fleet.Snapshot) {
		threshold = s.ThresholdC
		l.hotBuf = append(l.hotBuf[:0], s.Hotspots...)
	})
	d := time.Since(t0)
	res.reqMs = append(res.reqMs, ms(d))
	res.cur.reqMs = append(res.cur.reqMs, ms(d))
	res.cur.readWall += d
	res.cur.readCPU += cpuTime() - readCPU0
	l.tr.end(sp)
	res.reads++
	res.cur.reads++

	ph.pauseForCheck()
	l.rep.op("read.hotspots", l.checkHotspots(preds, threshold))
	l.ringTime[slot] = simT
	if err := l.grade(res, rr.Round, simT); err != nil {
		return false, err
	}
	ph.resumeAfterCheck()

	if l.step == nil {
		return true, nil
	}
	return l.step(group)
}

// checkHotspots compares the published hotspot list with every host whose
// published prediction is over the threshold, sorted by descending margin
// (ties by host id). Every published prediction must also come with a
// positive uncertainty and a plausible latest reading.
func (l *roundLoop) checkHotspots(preds []float64, threshold float64) error {
	want := l.hotWant[:0]
	for i, v := range preds {
		if math.IsNaN(v) {
			continue
		}
		if !(l.unc[i] > 0) || !finite(l.unc[i]) || l.cur[i] < minPlausibleC || l.cur[i] > maxPlausibleC {
			return fmt.Errorf("host %s: predicted %.2f °C with uncertainty %v and latest reading %v °C", l.ids[i], v, l.unc[i], l.cur[i])
		}
		if v > threshold {
			want = append(want, fleet.Hotspot{HostID: l.ids[i], PredictedTempC: v, MarginC: v - threshold})
		}
	}
	slices.SortFunc(want, func(a, b fleet.Hotspot) int {
		if a.MarginC != b.MarginC {
			if a.MarginC > b.MarginC {
				return -1
			}
			return 1
		}
		return strings.Compare(a.HostID, b.HostID)
	})
	l.hotWant = want
	if len(want) != len(l.hotBuf) {
		return fmt.Errorf("hotspot list has %d hosts, recomputation %d", len(l.hotBuf), len(want))
	}
	for i := range want {
		g := l.hotBuf[i]
		if g.HostID != want[i].HostID || g.PredictedTempC != want[i].PredictedTempC || g.MarginC != want[i].MarginC {
			return fmt.Errorf("hotspot %d is %s %.3f, recomputation %s %.3f", i, g.HostID, g.MarginC, want[i].HostID, want[i].MarginC)
		}
	}
	return nil
}

// grade adds the error of the predictions made lag rounds ago — which
// target this round's source time — to the running MAE.
func (l *roundLoop) grade(res *loopResult, round int, simT float64) error {
	lag := len(l.ring) - 1
	old := (round - lag) % len(l.ring)
	if round < lag || math.IsNaN(l.ringTime[old]) {
		return nil
	}
	if d := simT - l.ringTime[old]; math.Abs(d-l.gapS) > 1e-6 {
		return fmt.Errorf("predictions read at %.1f s target %.1f s, but round %d is at %.1f s", l.ringTime[old], l.ringTime[old]+l.gapS, round, simT)
	}
	if err := l.ref(simT, l.refBuf); err != nil {
		return fmt.Errorf("reference temperatures: %w", err)
	}
	for i, p := range l.ring[old] {
		r := l.refBuf[i]
		if math.IsNaN(p) || math.IsNaN(r) {
			continue
		}
		res.maeSum += math.Abs(p - r)
		res.maeN++
	}
	return nil
}

// roundMetrics fills the end-to-end and per-layer figures of a round
// workload from one measured phase, and the tracing overhead when untraced
// is the untraced half of a traced run.
func roundMetrics(rep *report, res, untraced *loopResult, heapMB float64, st *setupTimer, numSV int) {
	hr := float64(res.hostRounds)
	rounds := float64(res.rounds)
	reads := float64(res.reads)
	wall := res.ph.wall.Seconds()
	cpu := res.ph.cpu

	rep.note("measured phase: %d rounds in %.2f s (%d windows of %d), process CPU %.2f of %d cores",
		res.rounds, wall, len(res.windows), res.perWindow, cpu.Seconds()/wall, runtime.GOMAXPROCS(0))
	q := quiet(res.windows)
	hostsPerS, reqPerS := res.rates()
	rep.note("over the whole phase: %.0f host-rounds/s, %.4f us CPU per host-round, round p50 %.3f ms, machine steal %s",
		hr/wall, us(cpu)/hr, median(res.roundMs), stealNote(res.ph))
	rep.note("quiet windows: %d of %d, steal at most %.1f%%; all windows: median %.0f host-rounds/s",
		len(q), len(res.windows), 100*maxSteal(q), windowMedian(res.windows, hostRate))
	p95, beyond := percentile(res.roundMs, 0.95)
	if beyond < 10 {
		rep.note("round_ms_p95 has only %d rounds beyond it", beyond)
	}
	p99 := requestP99(rep, res.reqMs)
	rep.e2e["setup_s"] = metric{st.medianTotal(), "s"}
	rep.e2e["round_ms_p50"] = metric{pooledMedian(q, func(w window) []float64 { return w.roundMs }), "ms"}
	rep.layer["round_ms_p95"] = metric{p95, "ms"}
	rep.e2e["hosts_per_s"] = metric{hostsPerS, "1/s"}
	rep.e2e["cpu_us_per_host"] = metric{windowMedian(q, func(w window) float64 { return us(w.cpu) / float64(w.hosts) }), "us"}
	rep.e2e["req_ms_p50"] = metric{pooledMedian(q, func(w window) []float64 { return w.reqMs }), "ms"}
	rep.layer["req_ms_p99"] = metric{p99, "ms"}
	rep.e2e["req_per_s"] = metric{reqPerS, "1/s"}
	rep.e2e["cpu_us_per_req"] = metric{windowMedian(q, func(w window) float64 { return us(w.readCPU) / float64(w.reads) }), "us"}
	rep.e2e["pred_mae_c"] = metric{res.maeSum / float64(max(res.maeN, 1)), "C"}
	rep.e2e["heap_mb"] = metric{heapMB, "MB"}

	setupLayers(rep, st, numSV)
	rep.layer["fleet.control_ms_p50"] = metric{median(res.controlMs), "ms"}
	rep.layer["telemetry.advance_ms_p50"] = metric{median(res.advanceMs), "ms"}
	rep.layer["telemetry.readings_per_round"] = metric{float64(res.drained) / rounds, "count"}
	rep.layer["anchor.predict_ms_per_round"] = metric{float64(res.predNs) / 1e6 / rounds, "ms"}
	rep.layer["anchor.cases_per_round"] = metric{float64(res.predCases) / rounds, "count"}
	lookups := float64(res.hits + res.misses)
	rep.layer["anchorcache.lookups_per_round"] = metric{lookups / rounds, "count"}
	rep.layer["anchorcache.hit_ratio"] = metric{float64(res.hits) / math.Max(lookups, 1), "ratio"}
	rep.layer["engine.reanchored_per_round"] = metric{float64(res.reanchored) / rounds, "count"}
	rep.layer["engine.sessions_live"] = metric{float64(res.sessionsLive), "count"}
	rep.layer["fleet.stream_applied"] = metric{float64(res.streamApplied), "count"}
	rep.layer["fleet.stream_deferred"] = metric{float64(res.streamDeferred), "count"}
	g := res.ph.goDelta
	rep.layer["go.allocs_per_host"] = metric{float64(g.allocObjs) / hr, "count"}
	rep.layer["go.alloc_bytes_per_host"] = metric{float64(g.allocBytes) / hr, "B"}
	rep.layer["go.allocs_per_req"] = metric{float64(g.allocObjs) / reads, "count"}
	rep.layer["go.alloc_bytes_per_req"] = metric{float64(g.allocBytes) / reads, "B"}
	rep.layer["go.gc_cpu_ms_per_round"] = metric{g.gcCPU * 1e3 / rounds, "ms"}
	if untraced != nil {
		uh, ur := untraced.rates()
		overhead(rep, uh, hostsPerS, ur, reqPerS)
	}
}

// rates returns the phase's median quiet-window throughput: host-rounds
// per second of wall clock, and snapshot reads per second of read time.
func (res *loopResult) rates() (hostsPerS, readsPerS float64) {
	q := quiet(res.windows)
	hostsPerS = windowMedian(q, hostRate)
	readsPerS = windowMedian(q, func(w window) float64 { return float64(w.reads) / w.readWall.Seconds() })
	return hostsPerS, readsPerS
}

func hostRate(w window) float64 { return float64(w.hosts) / w.wall.Seconds() }

// dieTempRef grades against the simulator's true die temperatures
// (MeasuredDieTemps), the reference of the simulated fleets.
func dieTempRef(ctl *fleet.Controller, ids []string) func(float64, []float64) error {
	pos := make(map[string]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	var die map[string]float64
	return func(_ float64, dst []float64) error {
		var err error
		if die, err = ctl.MeasuredDieTemps(die); err != nil {
			return err
		}
		for id, t := range die {
			dst[pos[id]] = t
		}
		return nil
	}
}

// requestP99 is req_ms_p99: the median p99 of windows of p99Window
// requests, or the whole phase's p99 when it holds less than one window.
func requestP99(rep *report, lat []float64) float64 {
	p99, windows := windowP99(lat, p99Window)
	whole, beyond := percentile(lat, 0.99)
	rep.note("req_ms_p99 is the median of %d windows of %d requests; over the whole phase p99 is %.4f ms (%d beyond)",
		windows, p99Window, whole, beyond)
	if windows == 0 {
		return whole
	}
	return p99
}

// setupLayers fills the per-layer set-up figures every workload reports.
func setupLayers(rep *report, st *setupTimer, numSV int) {
	rep.layer["dataset.build_s"] = metric{st.medianLayer("dataset.build_s"), "s"}
	rep.layer["core.train_s"] = metric{st.medianLayer("core.train_s"), "s"}
	rep.layer["fleet.build_s"] = metric{st.medianLayer("fleet.build_s"), "s"}
	rep.layer["fleet.warm_s"] = metric{st.medianLayer("fleet.warm_s"), "s"}
	rep.layer["svm.support_vectors"] = metric{float64(numSV), "count"}
}

// overhead fills the tracing-overhead figures from an untraced and a traced
// phase of the same run.
func overhead(rep *report, untracedHostsPerS, tracedHostsPerS, untracedReqPerS, tracedReqPerS float64) {
	rep.layer["trace.hosts_per_s_overhead_pct"] = metric{100 * (1 - tracedHostsPerS/untracedHostsPerS), "%"}
	rep.layer["trace.req_per_s_overhead_pct"] = metric{100 * (1 - tracedReqPerS/untracedReqPerS), "%"}
}

// measurePhases runs the measured phase. A traced run splits it in two
// halves on the same warm controller — untraced, then traced — so the
// tracing overhead is measured against an untraced run of the same state.
func measurePhases(loop *roundLoop, rc runConfig) (res, untraced *loopResult, err error) {
	if !rc.traced {
		res, err = loop.run(rc.seconds)
		return res, nil, err
	}
	rc.tr.on.Store(false)
	if untraced, err = loop.run(rc.seconds / 2); err != nil {
		return nil, nil, err
	}
	rc.tr.on.Store(true)
	res, err = loop.run(rc.seconds / 2)
	return res, untraced, err
}

// maeBoundC bounds pred_mae_c: twice the 1.22 °C root-mean-square error
// of the worst cell of the paper's Fig. 1(c) band (MSE 0.70–1.50 °C²); see
// the README.
const maeBoundC = 2.45

// gradeMAE checks the prediction error against maeBoundC.
func gradeMAE(rep *report, res *loopResult) error {
	if res.maeN == 0 {
		rep.fail("no predictions were graded")
		return nil
	}
	if mae := res.maeSum / float64(res.maeN); !(mae <= maeBoundC) {
		rep.fail("pred_mae_c %.3f exceeds the bound %.2f", mae, maeBoundC)
	}
	rep.note("graded %d predictions", res.maeN)
	return nil
}
