package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"vmtherm/internal/checkpoint"
	"vmtherm/internal/core"
	"vmtherm/internal/fleet"
	"vmtherm/internal/telemetry"
	"vmtherm/internal/workload"
)

// replayScale sizes the replay-16k workload; tests run it tiny.
type replayScale struct {
	// The trace is recorded from a recRacks × recHostsPerRack simulated
	// fleet after preRounds rounds, for recRounds rounds, and tiled tiles
	// times over distinct host ids.
	recRacks, recHostsPerRack int
	preRounds, recRounds      int
	tiles                     int
	trainCases                int
	warmRounds                int
	page                      int
	setups                    int
	ckptEvery                 int // rounds between checkpoints
	twinRounds                int // rounds the restored twin must match
}

var replay16k = replayScale{
	recRacks: 64, recHostsPerRack: 64,
	preRounds: 40, recRounds: 48, tiles: 4,
	trainCases: 160, warmRounds: 4, page: 1024, setups: 3,
	ckptEvery: 8, twinRounds: 3,
}

// recordSim records the telemetry of a simulated fleet carrying base VMs on
// every other host: preRounds unrecorded rounds, then rounds recorded ones.
// Migration is off, so the physics does not depend on the stand-in
// predictor.
func recordSim(cfg fleet.Config, base []workload.VMSpec, preRounds, rounds int) ([]telemetry.Reading, error) {
	cfg.MaxMigrationsPerRound = 0
	ctl, err := fleet.New(cfg, fleet.SyntheticStablePredictor(75))
	if err != nil {
		return nil, err
	}
	ids := ctl.Hosts()
	for i, spec := range base {
		if err := ctl.PlaceAt(ids[2*i], spec); err != nil {
			return nil, err
		}
	}
	if _, err := ctl.Run(preRounds); err != nil {
		return nil, err
	}
	rec := &telemetry.Recorder{}
	ctl.TeeTelemetry(rec.Emit)
	if _, err := ctl.Run(rounds); err != nil {
		return nil, err
	}
	return rec.Readings, nil
}

// tiledTrace is a recorded trace replicated over distinct host ids, with
// the lookup the benchmark grades predictions against.
type tiledTrace struct {
	readings []telemetry.Reading // time-ordered, tiled
	ids      []string            // tiled host ids
	origIdx  []int               // ids[i] replays recorded host origIdx[i]
	base     float64             // first recorded timestamp
	period   float64             // one loop of the trace, as TraceSource loops it
	sampleS  float64
	temps    [][]float64 // [sample ordinal][recorded host] → temperature
}

func tileTrace(rec []telemetry.Reading, tiles int, sampleS float64) (*tiledTrace, error) {
	if len(rec) == 0 {
		return nil, fmt.Errorf("empty recording")
	}
	hostIdx := make(map[string]int)
	var hosts []string
	for _, r := range rec {
		if _, ok := hostIdx[r.HostID]; !ok {
			hostIdx[r.HostID] = len(hosts)
			hosts = append(hosts, r.HostID)
		}
	}
	tt := &tiledTrace{base: rec[0].AtS, sampleS: sampleS}
	names := make([][]string, tiles)
	for k := range names {
		names[k] = make([]string, len(hosts))
		for h, id := range hosts {
			names[k][h] = fmt.Sprintf("t%02d-%s", k, id)
			tt.ids = append(tt.ids, names[k][h])
			tt.origIdx = append(tt.origIdx, h)
		}
	}
	// Emit each recorded instant once per tile, keeping time order without
	// a sort.
	tt.readings = make([]telemetry.Reading, 0, len(rec)*tiles)
	for lo := 0; lo < len(rec); {
		hi := lo
		for hi < len(rec) && rec[hi].AtS == rec[lo].AtS {
			hi++
		}
		ordinal := int(math.Round((rec[lo].AtS - tt.base) / sampleS))
		if math.Abs(tt.base+float64(ordinal)*sampleS-rec[lo].AtS) > 1e-6 || ordinal != len(tt.temps) {
			return nil, fmt.Errorf("recording is not sampled every %g s (reading at %g s)", sampleS, rec[lo].AtS)
		}
		row := make([]float64, len(hosts))
		for i := range row {
			row[i] = math.NaN()
		}
		for _, r := range rec[lo:hi] {
			row[hostIdx[r.HostID]] = r.TempC
		}
		tt.temps = append(tt.temps, row)
		for k := 0; k < tiles; k++ {
			for _, r := range rec[lo:hi] {
				r.HostID = names[k][hostIdx[r.HostID]]
				tt.readings = append(tt.readings, r)
			}
		}
		lo = hi
	}
	// TraceSource loops after the recorded span plus one mean interval.
	ticks := len(tt.temps)
	span := rec[len(rec)-1].AtS - tt.base
	tt.period = span + span/float64(ticks-1)
	return tt, nil
}

// ref fills dst with the trace's own reading at trace time atS. A
// prediction made gapS before atS is not graded when its window crosses the
// loop seam, where the looped trace jumps back to its start.
func (tt *tiledTrace) ref(atS, gapS float64, dst []float64) {
	cyc := math.Floor(atS / tt.period)
	seam := math.Floor((atS-gapS)/tt.period) != cyc
	ordinal := int(math.Round((atS - cyc*tt.period) / tt.sampleS))
	for i := range dst {
		dst[i] = math.NaN()
	}
	if seam || ordinal >= len(tt.temps) {
		return
	}
	row := tt.temps[ordinal]
	for i, h := range tt.origIdx {
		dst[i] = row[h]
	}
}

// runReplay runs closed-loop rounds of a source-driven controller replaying
// the tiled trace, with periodic in-memory checkpoints.
func runReplay(ctx context.Context, sc replayScale, rc runConfig, rep *report) error {
	// Inputs, generated before anything is timed.
	trainSets, err := trainingSets(rc.seed, sc.trainCases, sc.setups)
	if err != nil {
		return err
	}
	recCfg := fleet.DefaultConfig()
	recCfg.Racks, recCfg.HostsPerRack = sc.recRacks, sc.recHostsPerRack
	recCfg.Seed = rc.seed
	base, err := vmPool(rc.seed, "base", recCfg.Racks*recCfg.HostsPerRack/2)
	if err != nil {
		return err
	}
	rec, err := recordSim(recCfg, base, sc.preRounds, sc.recRounds)
	if err != nil {
		return fmt.Errorf("recording the trace: %w", err)
	}
	tt, err := tileTrace(rec, sc.tiles, recCfg.SampleS)
	if err != nil {
		return err
	}
	rec = nil
	hosts := len(tt.ids)
	cfg := fleet.DefaultConfig()
	cfg.MaxHosts = hosts
	cfg.Seed = rc.seed
	newSource := func() (*telemetry.TraceSource, error) {
		return telemetry.NewTraceSource(tt.readings, telemetry.TraceOptions{Loop: true})
	}
	inputsMB := liveHeapMB()

	st := newSetupTimer(rc.tr)
	var (
		ctl   *fleet.Controller
		model *core.StablePredictor
		src   *timedSource
		pst   = &predictorStats{}
	)
	for i := 0; i < sc.setups; i++ {
		ctl, model = nil, nil
		runtime.GC()
		if model, err = trainModel(ctx, st, trainSets[i], rc.seed); err != nil {
			return err
		}
		*pst = predictorStats{}
		trace, err := newSource()
		if err != nil {
			return err
		}
		src = &timedSource{Source: trace, tr: rc.tr}
		predict := timedPredictor(fleet.StableBatchPredictor(model, cfg.HorizonS), rc.tr, pst)
		if err := st.time("fleet.build_s", func() (err error) {
			ctl, err = fleet.NewWithSource(cfg, src, predict)
			return err
		}); err != nil {
			return fmt.Errorf("building the controller: %w", err)
		}
		if err := st.time("fleet.warm_s", func() error {
			_, err := ctl.Run(sc.warmRounds)
			return err
		}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		st.done()
	}

	var (
		rounds, seq         int
		captureMs, encodeMs []float64
		firstBytes          int64 = -1
		buf                 bytes.Buffer
	)
	step := func(group int) (bool, error) {
		rounds++
		if rounds%sc.ckptEvery != 0 {
			return true, nil
		}
		sp := rc.tr.root("fleet.Checkpoint", group)
		t0 := time.Now()
		state, err := ctl.Checkpoint()
		captureMs = append(captureMs, ms(time.Since(t0)))
		rc.tr.end(sp)
		if err == nil {
			buf.Reset()
			seq++
			sp := rc.tr.root("checkpoint.Encode", group)
			t0 := time.Now()
			var n int64
			n, err = checkpoint.Encode(&buf, uint64(seq), state)
			encodeMs = append(encodeMs, ms(time.Since(t0)))
			rc.tr.end(sp)
			if err == nil && firstBytes < 0 {
				firstBytes = n
			}
		}
		rep.op("checkpoint", err)
		return true, nil
	}

	loop := &roundLoop{
		ctl: ctl, ids: tt.ids, page: sc.page, tr: rc.tr, rep: rep, pred: pst, src: src,
		// Each window holds one checkpoint.
		gapS: cfg.GapS, perWindow: sc.ckptEvery,
		ref: func(atS float64, dst []float64) error {
			tt.ref(atS, cfg.GapS, dst)
			return nil
		},
		step: step,
	}
	loop.init(int(math.Round(cfg.GapS / cfg.UpdateEveryS)))
	// One untimed loop of the trace first: the controller's calibration
	// settles over it (its error was 10–20% above every later loop's, which
	// repeat one another), so pred_mae_c does not depend on how many loops
	// the measured phase holds.
	if err := loop.ramp(sc.recRounds); err != nil {
		return err
	}
	res, untraced, err := measurePhases(loop, rc)
	if err != nil {
		return err
	}
	heap := liveHeapMB() - inputsMB
	runtime.KeepAlive(ctl)
	runtime.KeepAlive(loop)
	runtime.KeepAlive(trainSets)
	rep.note("heap_mb leaves out %.3f MB of live heap after input generation", inputsMB)

	roundMetrics(rep, res, untraced, heap, st, model.NumSV())
	rep.layer["fleet.placed_per_round"] = metric{0, "count"}
	rep.layer["fleet.rejected_per_round"] = metric{0, "count"}
	rep.layer["checkpoint.bytes"] = metric{float64(max(firstBytes, 0)), "B"}
	rep.extra["checkpoint.capture_ms_p50"] = metric{median(captureMs), "ms"}
	rep.extra["checkpoint.encode_ms_p50"] = metric{median(encodeMs), "ms"}

	if res.sessionsLive != hosts || res.discarded != 0 || res.evicted != 0 {
		rep.fail("%d of %d hosts hold live sessions (%d discarded, %d evicted)", res.sessionsLive, hosts, res.discarded, res.evicted)
	}
	if err := gradeMAE(rep, res); err != nil {
		return err
	}
	twinCheck(rep, ctl, cfg, newSource, model, sc.twinRounds)
	return nil
}

// twinCheck restores a fresh controller from a checkpoint of the running
// one (captured, encoded and decoded in memory) and runs both side by side:
// each following round must publish identical predictions and counters.
func twinCheck(rep *report, ctl *fleet.Controller, cfg fleet.Config,
	newSource func() (*telemetry.TraceSource, error), model *core.StablePredictor, rounds int) {
	var buf bytes.Buffer
	state, err := ctl.Checkpoint()
	if err == nil {
		_, err = checkpoint.Encode(&buf, 1, state)
	}
	var decoded *checkpoint.State
	if err == nil {
		decoded, _, err = checkpoint.Decode(&buf)
	}
	var twin *fleet.Controller
	if err == nil {
		var trace *telemetry.TraceSource
		if trace, err = newSource(); err == nil {
			twin, err = fleet.NewWithSource(cfg, trace, fleet.StableBatchPredictor(model, cfg.HorizonS))
		}
	}
	if err == nil {
		err = twin.Restore(decoded)
	}
	rep.op("restore", err)
	if err != nil {
		return
	}
	for i := 0; i < rounds; i++ {
		a, errA := ctl.RunRound()
		b, errB := twin.RunRound()
		if errA != nil || errB != nil {
			rep.op("twin_round", fmt.Errorf("original: %v, twin: %v", errA, errB))
			return
		}
		rep.op("twin_round", sameRound(ctl, twin, a, b))
	}
}

// sameRound compares two controllers' round counters and published
// predictions.
func sameRound(a, b *fleet.Controller, ra, rb fleet.RoundReport) error {
	if ra.Round != rb.Round || ra.Hosts != rb.Hosts || ra.SessionsLive != rb.SessionsLive ||
		ra.Hotspots != rb.Hotspots || ra.Reanchored != rb.Reanchored || ra.TelemetryDrained != rb.TelemetryDrained {
		return fmt.Errorf("round counters differ: original %+v, twin %+v", ra, rb)
	}
	var pa map[string]float64
	a.ViewSnapshot(func(s *fleet.Snapshot) {
		pa = make(map[string]float64, len(s.Predicted))
		for k, v := range s.Predicted {
			pa[k] = v
		}
	})
	var diff error
	b.ViewSnapshot(func(s *fleet.Snapshot) {
		if len(s.Predicted) != len(pa) {
			diff = fmt.Errorf("twin publishes %d predictions, original %d", len(s.Predicted), len(pa))
			return
		}
		for k, v := range s.Predicted {
			if w, ok := pa[k]; !ok || w != v {
				diff = fmt.Errorf("host %s: twin predicts %v, original %v", k, v, w)
				return
			}
		}
	})
	return diff
}
