package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/fleet"
	"vmtherm/internal/predictclient"
	"vmtherm/internal/predictserver"
	"vmtherm/internal/workload"
)

// serveScale sizes the serve-1k workload; tests run it tiny.
type serveScale struct {
	racks, hostsPerRack int
	trainCases          int
	warmRounds          int
	setups              int
	cadence             time.Duration // between background rounds
	openRate            float64       // open-loop requests per second
	openSenders         int           // open-loop sender goroutines
	clients             int           // closed-loop clients
	readingsPerIngest   int
	rowsPerStable       int
	vmsPerPlace         int
	maxReqPerS          int // bounds the pre-generated placement inputs
}

// serve1k's open-loop rate is about half the open-loop capacity of its
// request mix: at 4,000 requests/s the background rounds kept their
// cadence and no reading was dropped, at 4,800/s they fell behind and the
// ingest buffer overflowed (README).
var serve1k = serveScale{
	racks: 16, hostsPerRack: 64,
	trainCases: 24, warmRounds: 3, setups: 9,
	cadence:  40 * time.Millisecond,
	openRate: 2000, openSenders: 32, clients: 2,
	readingsPerIngest: 8, rowsPerStable: 32, vmsPerPlace: 2,
	maxReqPerS: 8000,
}

const (
	reqIngest = iota
	reqHotspots
	reqStable
	reqPlace
)

// requestMix is the fixed request order, repeated: of every 32 requests, 8
// are streaming ingests with predict, 8 hotspot reads, 15 stable-batch
// predictions and 1 a batch placement (followed by as many removals).
// Placements are the rarest, as schedulers place far less often than
// monitoring agents report. The ingest volume stays within what the
// fleet's ingest buffer takes between two rounds even in the closed loop,
// so no reading is dropped.
var requestMix = func() (mix [32]int) {
	for i := range mix {
		switch {
		case i == len(mix)-1:
			mix[i] = reqPlace
		case i%4 == 0:
			mix[i] = reqIngest
		case i%4 == 1:
			mix[i] = reqHotspots
		default:
			mix[i] = reqStable
		}
	}
	return mix
}()

var routeOf = map[string]string{
	"/v1/fleet/ingest":      "ingest_predict",
	"/v1/fleet/hotspots":    "hotspots",
	"/v1/stable/batch":      "stable_batch",
	"/v1/fleet/place/batch": "place_batch",
}

// Plausible range for a predicted die temperature, °C.
const minPlausibleC, maxPlausibleC = 10, 120

// serveInputs is everything the request stream sends, generated up front.
type serveInputs struct {
	hosts    []string
	readings [][]compactReading // by live round: each host's next sensor report
	rows     [][]float64
	want     []float64 // model prediction per row, filled after training
	place    []predictserver.FleetPlaceRequest
}

// compactReading is one pre-generated reading, kept small: the inputs are
// live heap during the run, which heap_mb measures.
type compactReading struct {
	host                    uint16
	atS, tempC, util, memFr float32
}

// serveState is the live stack and the counters the request stream shares.
type serveState struct {
	sc     serveScale
	in     *serveInputs
	ctl    *fleet.Controller
	client *predictclient.Client
	rep    *report
	tr     *tracer

	seq        atomic.Int64 // next request in the mix
	placeNext  atomic.Int64 // next VM in the placement pool
	ingestNext atomic.Int64 // next ingest request, picks its readings
	stableNext atomic.Int64 // next stable-batch request, picks its rows
	round      atomic.Int64 // completed rounds of the live fleet

	mu       sync.Mutex
	fifo     []string // VMs placed, oldest first
	removeUs []float64
	placed   int
	rejected int

	hookMu sync.Mutex
	route  map[string][]float64 // per-route client-observed latency, ms
}

func runServe(ctx context.Context, sc serveScale, rc runConfig, rep *report) error {
	// Inputs, generated before anything is timed.
	trainSets, err := trainingSets(rc.seed, sc.trainCases, sc.setups)
	if err != nil {
		return err
	}
	cfg := fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = sc.racks, sc.hostsPerRack
	cfg.StreamingIngest = true
	cfg.Seed = rc.seed
	hosts := cfg.Racks * cfg.HostsPerRack
	// The default ingest buffer holds one round of the simulator's own
	// readings and leaves 1,024 for pushed ones. When a background round
	// starts late, the closed loop's pushed readings fill it and readings of
	// the simulator's next sweep are dropped: 8 of them in one of ten runs.
	// The buffer is sized for both, twice the default (one round's volume,
	// at least 4,096 readings), as the operator of a streaming fleet would
	// size it.
	cfg.IngestBuffer = 2 * max(4096, hosts*(int(math.Ceil(cfg.UpdateEveryS/cfg.SampleS))+1))
	base, err := vmPool(rc.seed, "base", hosts/2)
	if err != nil {
		return err
	}
	in, err := serveGenerate(sc, cfg, base, rc)
	if err != nil {
		return err
	}
	inputsMB := liveHeapMB()

	st := newSetupTimer(rc.tr)
	var (
		ctl   *fleet.Controller
		srv   *predictserver.Server
		model *core.StablePredictor
		pst   = &predictorStats{}
	)
	for i := 0; i < sc.setups; i++ {
		if srv != nil {
			srv.Close()
		}
		ctl, srv, model = nil, nil, nil
		runtime.GC()
		if model, err = trainModel(ctx, st, trainSets[i], rc.seed); err != nil {
			return err
		}
		*pst = predictorStats{}
		predict := timedPredictor(fleet.StableBatchPredictor(model, cfg.HorizonS), rc.tr, pst)
		if err := st.time("fleet.build_s", func() error {
			if ctl, err = fleet.New(cfg, predict); err != nil {
				return err
			}
			ids := ctl.Hosts()
			for i, spec := range base {
				if err := ctl.PlaceAt(ids[2*i], spec); err != nil {
					return err
				}
			}
			srv, err = predictserver.New(model, predictserver.WithFleet(ctl))
			return err
		}); err != nil {
			return fmt.Errorf("building the stack: %w", err)
		}
		if err := st.time("fleet.warm_s", func() error {
			_, err := ctl.Run(sc.warmRounds)
			return err
		}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		st.done()
	}
	defer srv.Close()
	if in.want, err = model.PredictBatch(in.rows); err != nil {
		return err
	}

	s := &serveState{sc: sc, in: in, ctl: ctl, rep: rep, tr: rc.tr, route: make(map[string][]float64)}
	s.round.Store(int64(sc.warmRounds))
	for _, spec := range base {
		s.fifo = append(s.fifo, spec.ID)
	}
	s.client, err = predictclient.NewLocal(srv.Handler(), predictclient.WithTimingHook(s.hook))
	if err != nil {
		return err
	}

	// The run is split between the two request phases and a final round
	// phase: 3/8 open loop, 1/4 closed loop, 3/8 rounds. Background rounds
	// run every cadence through both request phases. The closed loop
	// completes more requests per second than the open loop sends, so it
	// fills more windows in less time.
	openSecs := rc.seconds * 3 / 8
	closedSecs := rc.seconds / 4
	roundSecs := rc.seconds - openSecs - closedSecs
	bg := startBackground(s)
	open := s.openLoop(openSecs)
	s.hookMu.Lock()
	routes := s.route
	s.route = make(map[string][]float64)
	s.hookMu.Unlock()
	var closed, untraced *closedResult
	if rc.traced {
		rc.tr.on.Store(false)
		untraced = s.closedLoop(closedSecs / 2)
		rc.tr.on.Store(true)
		closed = s.closedLoop(closedSecs / 2)
	} else {
		closed = s.closedLoop(closedSecs)
	}
	bgRes := bg.stop()

	// The round phase: closed-loop rounds of the serving fleet, read and
	// graded the way the round workloads are. Its rounds give the round,
	// host and accuracy figures; contended round times are in
	// fleet.bg_round_ms_p50.
	ids := ctl.Hosts()
	loop := &roundLoop{
		ctl: ctl, ids: ids, page: 1024, tr: rc.tr, rep: rep, pred: pst,
		gapS: cfg.GapS, ref: dieTempRef(ctl, ids), perWindow: 24,
	}
	loop.init(int(math.Round(cfg.GapS / cfg.UpdateEveryS)))
	rounds, untracedRounds, err := measurePhases(loop, runConfig{seconds: roundSecs, traced: rc.traced, tr: rc.tr})
	if err != nil {
		return err
	}
	heap := liveHeapMB() - inputsMB
	runtime.KeepAlive(ctl)
	runtime.KeepAlive(s)
	runtime.KeepAlive(trainSets)
	rep.note("heap_mb leaves out %.3f MB of live heap after input generation", inputsMB)

	// roundMetrics fills the round-side figures; the request-side ones come
	// from the request phases: latency from the open loop, throughput, CPU
	// and allocations per request from the closed loop.
	roundMetrics(rep, rounds, untracedRounds, heap, st, model.NumSV())
	reqPerS := closed.reqPerS()
	openQuiet := quiet(open.windows)
	rep.e2e["req_ms_p50"] = metric{pooledMedian(openQuiet, func(w window) []float64 { return w.reqMs }), "ms"}
	rep.note("open loop: %d quiet of %d windows of %d requests, steal at most %.1f%%; over the whole phase p50 %.4f ms",
		len(openQuiet), len(open.windows), openWindow, 100*maxSteal(openQuiet), median(open.latMs))
	rep.layer["req_ms_p99"] = metric{requestP99(rep, open.latMs), "ms"}
	rep.e2e["req_per_s"] = metric{reqPerS, "1/s"}
	rep.e2e["cpu_us_per_req"] = metric{windowMedian(quiet(closed.windows), func(w window) float64 { return us(w.cpu) / float64(w.reads) }), "us"}
	rep.note("closed loop: %d quiet of %d windows of %d requests; over the whole phase %.0f requests/s, %.2f us CPU per request, machine steal %s",
		len(quiet(closed.windows)), len(closed.windows), reqPerWindow, float64(closed.requests)/closed.ph.wall.Seconds(),
		us(closed.ph.cpu)/float64(closed.requests), stealNote(closed.ph))

	s.mu.Lock()
	bgRounds := float64(bgRes.rounds)
	rep.layer["fleet.placed_per_round"] = metric{float64(s.placed) / bgRounds, "count"}
	rep.layer["fleet.rejected_per_round"] = metric{float64(s.rejected) / bgRounds, "count"}
	removeUs := s.removeUs
	s.mu.Unlock()
	rep.layer["checkpoint.bytes"] = metric{0, "B"}
	rep.layer["fleet.stream_applied"] = metric{float64(bgRes.streamApplied), "count"}
	rep.layer["fleet.stream_deferred"] = metric{float64(bgRes.streamDeferred), "count"}
	g := closed.ph.goDelta
	rep.layer["go.allocs_per_req"] = metric{float64(g.allocObjs) / float64(closed.requests), "count"}
	rep.layer["go.alloc_bytes_per_req"] = metric{float64(g.allocBytes) / float64(closed.requests), "B"}
	if untraced != nil {
		tracedHosts, _ := rounds.rates()
		untracedHosts, _ := untracedRounds.rates()
		overhead(rep, untracedHosts, tracedHosts, untraced.reqPerS(), reqPerS)
	}
	for path, name := range routeOf {
		p99, _ := percentile(routes[path], 0.99)
		rep.extra["predictserver."+name+"_ms_p50"] = metric{median(routes[path]), "ms"}
		rep.extra["predictserver."+name+"_ms_p99"] = metric{p99, "ms"}
	}
	lag, _ := percentile(open.lagMs, 0.99)
	rep.extra["loadgen.lag_ms_p99"] = metric{lag, "ms"}
	rep.extra["fleet.bg_round_ms_p50"] = metric{median(bgRes.roundMs), "ms"}
	rep.extra["fleet.remove_vm_us_p50"] = metric{median(removeUs), "us"}
	rep.extra["sim.advance_ms_p50"] = metric{median(rounds.advanceMs), "ms"}
	rep.extra["core.predict_batch_us_p50"] = metric{predictBatchUs(model, in.rows, sc.rowsPerStable), "us"}

	// The simulator's own readings share the ingest buffer with the pushed
	// ones; none may be lost either.
	if bgRes.dropped > 0 {
		rep.fail("%d readings were dropped at the full ingest buffer", bgRes.dropped)
	}
	rep.note("stable model: %d support vectors", model.NumSV())
	rep.note("open loop: %d requests at %.0f/s offered, senders late by %.3f ms at p99; closed loop: %d requests, %d clients; %d background rounds",
		len(open.latMs), sc.openRate, lag, closed.requests, sc.clients, bgRes.rounds)
	return gradeMAE(rep, rounds)
}

// serveGenerate builds the request inputs: the readings the live fleet's
// sensors will report (recorded from a twin fleet with the same seed and
// deployment), stable-batch rows, and placement requests.
func serveGenerate(sc serveScale, cfg fleet.Config, base []workload.VMSpec, rc runConfig) (*serveInputs, error) {
	in := &serveInputs{}
	maxRounds := int(math.Ceil(rc.seconds*float64(time.Second)/float64(sc.cadence))) + 20
	rec, err := recordSim(cfg, base, sc.warmRounds, maxRounds)
	if err != nil {
		return nil, fmt.Errorf("recording the twin fleet: %w", err)
	}
	// Group by the live round whose interval the reading falls in — round r
	// advances the fleet from r·Δ_update to (r+1)·Δ_update — keeping each
	// host's last reading of the interval.
	in.readings = make([][]compactReading, sc.warmRounds+maxRounds)
	nHosts := cfg.Racks * cfg.HostsPerRack
	idx := make(map[string]int, nHosts)
	for _, r := range rec {
		k := int(math.Ceil(r.AtS/cfg.UpdateEveryS)) - 1
		if k < 0 || k >= len(in.readings) {
			continue
		}
		h, ok := idx[r.HostID]
		if !ok {
			h = len(in.hosts)
			idx[r.HostID] = h
			in.hosts = append(in.hosts, r.HostID)
		}
		if in.readings[k] == nil {
			in.readings[k] = make([]compactReading, nHosts)
		}
		if h >= nHosts {
			return nil, fmt.Errorf("twin fleet reported %d hosts, want %d", h+1, nHosts)
		}
		in.readings[k][h] = compactReading{uint16(h), float32(r.AtS), float32(r.TempC), float32(r.Util), float32(r.MemFrac)}
	}
	for k, rs := range in.readings {
		for _, c := range rs {
			if c.atS == 0 {
				return nil, fmt.Errorf("twin fleet round %d lacks a reading for some host", k)
			}
		}
	}
	cases, err := workload.GenerateCases(workload.DefaultGenOptions(), rc.seed+2, "rows", 4*sc.rowsPerStable)
	if err != nil {
		return nil, err
	}
	for _, c := range cases {
		row, err := dataset.Encode(c, cfg.HorizonS)
		if err != nil {
			return nil, err
		}
		in.rows = append(in.rows, row)
	}
	n := int(math.Ceil(rc.seconds)) * sc.maxReqPerS / len(requestMix) * sc.vmsPerPlace
	specs, err := vmPool(rc.seed, "place", n)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		req := predictserver.FleetPlaceRequest{ID: spec.ID, VCPUs: spec.Config.VCPUs, MemoryGB: spec.Config.MemoryGB}
		for _, t := range spec.Tasks {
			req.Tasks = append(req.Tasks, predictserver.FleetTaskSpec{CPUFraction: t.Task.CPUFraction, MemGB: t.Task.MemGB})
		}
		in.place = append(in.place, req)
	}
	return in, nil
}

func (s *serveState) hook(_, path string, d time.Duration, _ error) {
	s.hookMu.Lock()
	s.route[path] = append(s.route[path], ms(d))
	s.hookMu.Unlock()
}

var errInputsUsedUp = errors.New("placement inputs used up")

// do sends request k of the mix and checks its response.
func (s *serveState) do(ctx context.Context, k int64) error {
	kind := requestMix[k%int64(len(requestMix))]
	switch kind {
	case reqIngest:
		rs := s.in.readings[min(int(s.round.Load()), len(s.in.readings)-1)]
		n := s.sc.readingsPerIngest
		lo := int(s.ingestNext.Add(1)-1) * n % (len(rs) - n + 1)
		batch := make([]predictserver.FleetReading, n)
		for i, c := range rs[lo : lo+n] {
			batch[i] = predictserver.FleetReading{HostID: s.in.hosts[c.host], AtS: float64(c.atS),
				TempC: float64(c.tempC), Util: float64(c.util), MemFrac: float64(c.memFr)}
		}
		sp := s.tr.root("http.ingest_predict", 0)
		resp, err := s.client.FleetIngestPredict(ctx, batch)
		s.tr.end(sp)
		if err == nil {
			err = checkIngest(batch, resp)
		}
		s.rep.op("req.ingest_predict", err)
		return err
	case reqHotspots:
		sp := s.tr.root("http.hotspots", 0)
		resp, err := s.client.FleetHotspots(ctx)
		s.tr.end(sp)
		if err == nil {
			err = checkHotspotsResponse(resp)
		}
		s.rep.op("req.hotspots", err)
		return err
	case reqStable:
		n := s.sc.rowsPerStable
		lo := int(s.stableNext.Add(1)-1) * n % (len(s.in.rows) - n + 1)
		sp := s.tr.root("http.stable_batch", 0)
		got, err := s.client.PredictStableBatch(ctx, s.in.rows[lo:lo+n])
		s.tr.end(sp)
		if err == nil {
			err = checkStable(got, s.in.want[lo:lo+n])
		}
		s.rep.op("req.stable_batch", err)
		return err
	default:
		n := s.sc.vmsPerPlace
		lo := int(s.placeNext.Add(int64(n))) - n
		if lo+n > len(s.in.place) {
			return errInputsUsedUp
		}
		vms := s.in.place[lo : lo+n]
		sp := s.tr.root("http.place_batch", 0)
		resp, err := s.client.FleetPlaceBatch(ctx, vms)
		s.tr.end(sp)
		if err == nil {
			err = checkPlace(vms, resp)
		}
		s.rep.op("req.place_batch", err)
		if err == nil {
			s.balance(resp, sp)
		}
		return err
	}
}

// balance removes as many of the oldest VMs as the batch placed, so
// occupancy stays level.
func (s *serveState) balance(resp *predictserver.FleetPlaceBatchResponse, group int) {
	var victims []string
	s.mu.Lock()
	for _, r := range resp.Results {
		if r.Status == "placed" {
			s.fifo = append(s.fifo, r.VMID)
		}
	}
	s.placed += resp.Placed
	s.rejected += resp.Rejected
	n := min(resp.Placed, len(s.fifo))
	victims = append(victims, s.fifo[:n]...)
	s.fifo = s.fifo[n:]
	s.mu.Unlock()
	for _, id := range victims {
		sp := s.tr.root("fleet.RemoveVM", group)
		t0 := time.Now()
		err := s.ctl.RemoveVM(id)
		d := us(time.Since(t0))
		s.tr.end(sp)
		s.rep.op("remove_vm", err)
		s.mu.Lock()
		s.removeUs = append(s.removeUs, d)
		s.mu.Unlock()
	}
}

func checkIngest(batch []predictserver.FleetReading, resp *predictserver.FleetIngestResponse) error {
	if resp.Accepted != len(batch) || resp.Dropped != 0 || resp.Rejected != 0 || len(resp.Predictions) != len(batch) {
		return fmt.Errorf("ingest of %d readings: accepted %d, dropped %d, rejected %d, %d predictions",
			len(batch), resp.Accepted, resp.Dropped, resp.Rejected, len(resp.Predictions))
	}
	for i, p := range resp.Predictions {
		if p.HostID != batch[i].HostID {
			return fmt.Errorf("reading %d for %s: prediction for host %s", i, batch[i].HostID, p.HostID)
		}
		switch p.Outcome {
		case "deferred":
			// Accepted into the pipeline for the next round: the host has
			// no session yet, because a removal just deleted it.
			continue
		case "streamed":
		default:
			return fmt.Errorf("reading %d for %s: outcome %q", i, p.HostID, p.Outcome)
		}
		if !finite(p.PredictedTempC) || p.PredictedTempC < minPlausibleC || p.PredictedTempC > maxPlausibleC {
			return fmt.Errorf("reading %d for %s: prediction %v °C outside [%d, %d]", i, p.HostID, p.PredictedTempC, minPlausibleC, maxPlausibleC)
		}
	}
	return nil
}

func checkHotspotsResponse(resp *predictserver.FleetHotspotsResponse) error {
	for i, h := range resp.Hotspots {
		if !(h.MarginC > 0) {
			return fmt.Errorf("hotspot %s has margin %v", h.HostID, h.MarginC)
		}
		if i > 0 && h.MarginC > resp.Hotspots[i-1].MarginC {
			return fmt.Errorf("hotspots not sorted by descending margin at %d", i)
		}
	}
	return nil
}

// stableTolC is how far a served stable-batch prediction may be from the
// model's own PredictBatch on the same rows.
const stableTolC = 1e-9

func checkStable(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d predictions for %d rows", len(got), len(want))
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= stableTolC) {
			return fmt.Errorf("row %d: served %v, model %v", i, got[i], want[i])
		}
	}
	return nil
}

func checkPlace(vms []predictserver.FleetPlaceRequest, resp *predictserver.FleetPlaceBatchResponse) error {
	if len(resp.Results) != len(vms) || resp.Placed+resp.Queued+resp.Rejected != len(vms) {
		return fmt.Errorf("%d VMs sent: %d results, placed %d + queued %d + rejected %d",
			len(vms), len(resp.Results), resp.Placed, resp.Queued, resp.Rejected)
	}
	for _, r := range resp.Results {
		if r.Status == "rejected" && r.RejectCode == "" {
			return fmt.Errorf("rejection of %s carries no reject_code", r.VMID)
		}
	}
	return nil
}

// openResult is the open-loop phase: latency from when each request was
// due, and how late it was sent, indexed by schedule position.
type openResult struct {
	latMs, lagMs []float64
	windows      []window // consecutive windows of openWindow requests by due time
}

// openWindow is the length of one open-loop window, in requests.
const openWindow = 1000

// openLoop sends requests on a fixed schedule for seconds; senders wait for
// each request's due time, so a stall delays the requests behind it and
// that wait counts in their latency.
func (s *serveState) openLoop(seconds float64) *openResult {
	ctx := context.Background()
	n := int(seconds * s.sc.openRate)
	gap := time.Duration(float64(time.Second) / s.sc.openRate)
	res := &openResult{latMs: make([]float64, n), lagMs: make([]float64, n)}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		t0     = time.Now()
		missed atomic.Int64
		nw     = max(n/openWindow, 1)
		steals = make([]time.Duration, nw+1) // machine steal at each window's scheduled start
	)
	// Window k holds the requests due in [bound(k), bound(k+1)); the last
	// one takes the remainder.
	bound := func(k int) int {
		if k == nw {
			return n
		}
		return k * openWindow
	}
	steals[0] = stealTime()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= nw; k++ {
			time.Sleep(time.Until(t0.Add(time.Duration(bound(k)) * gap)))
			steals[k] = stealTime()
		}
	}()
	for w := 0; w < s.sc.openSenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * gap)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				start := time.Now()
				if err := s.do(ctx, s.seq.Add(1)-1); errors.Is(err, errInputsUsedUp) {
					missed.Add(1)
				}
				end := time.Now()
				res.latMs[i] = ms(end.Sub(due))
				res.lagMs[i] = ms(start.Sub(due))
			}
		}()
	}
	wg.Wait()
	if m := missed.Load(); m > 0 {
		s.rep.fail("%d open-loop placements found their inputs used up", m)
	}
	for k := 0; k < nw; k++ {
		lo, hi := bound(k), bound(k+1)
		res.windows = append(res.windows, window{wall: time.Duration(hi-lo) * gap, steal: steals[k+1] - steals[k], reqMs: res.latMs[lo:hi]})
	}
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	ph       *phase
	requests int
	windows  []window // consecutive windows of reqPerWindow completed requests
}

// reqPerWindow is the length of one closed-loop window: 32 passes of the
// request mix, which span several background rounds.
const reqPerWindow = 32 * len(requestMix)

// reqPerS is the median quiet window's completed requests per second.
func (c *closedResult) reqPerS() float64 {
	return windowMedian(quiet(c.windows), func(w window) float64 { return float64(w.reads) / w.wall.Seconds() })
}

// closedLoop runs the clients back to back for seconds: each sends its
// next request when the previous one completes.
func (s *serveState) closedLoop(seconds float64) *closedResult {
	ctx := context.Background()
	var (
		requests, missed atomic.Int64
		wg               sync.WaitGroup
		mu               sync.Mutex
		marks            []window // phase time at each window's end
	)
	ph := startPhase()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < s.sc.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := s.do(ctx, s.seq.Add(1)-1); errors.Is(err, errInputsUsedUp) {
					missed.Add(1)
					return
				}
				if requests.Add(1)%int64(reqPerWindow) == 0 {
					wall, cpu, steal := ph.elapsed()
					mu.Lock()
					marks = append(marks, window{wall: wall, cpu: cpu, steal: steal})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	ph.stop()
	if m := missed.Load(); m > 0 {
		s.rep.note("closed loop: placement inputs used up; phase ended early")
	}
	res := &closedResult{ph: ph, requests: int(requests.Load())}
	if len(marks) == 0 { // a phase shorter than one window is one window
		res.windows = []window{{wall: ph.wall, cpu: ph.cpu, steal: ph.steal, reads: res.requests}}
		return res
	}
	slices.SortFunc(marks, func(a, b window) int { return cmp.Compare(a.wall, b.wall) })
	var prev window
	for _, m := range marks {
		res.windows = append(res.windows, window{wall: m.wall - prev.wall, cpu: m.cpu - prev.cpu, steal: m.steal - prev.steal, reads: reqPerWindow})
		prev = m
	}
	return res
}

// bgResult is what the background rounds of the request phases recorded.
type bgResult struct {
	rounds                        int
	roundMs                       []float64
	streamApplied, streamDeferred int64
	dropped                       int64 // readings refused at the full ingest buffer
}

type background struct {
	stopCh chan struct{}
	done   chan *bgResult
}

// startBackground runs a round every cadence until stopped.
func startBackground(s *serveState) *background {
	b := &background{stopCh: make(chan struct{}), done: make(chan *bgResult, 1)}
	go func() {
		res := &bgResult{}
		applied0, _, deferred0, _ := s.ctl.StreamTotals()
		_, dropped0, _ := s.ctl.IngestStats()
		tick := time.NewTicker(s.sc.cadence)
		defer tick.Stop()
		for {
			select {
			case <-b.stopCh:
				applied1, _, deferred1, _ := s.ctl.StreamTotals()
				_, dropped1, _ := s.ctl.IngestStats()
				res.streamApplied, res.streamDeferred = applied1-applied0, deferred1-deferred0
				res.dropped = dropped1 - dropped0
				b.done <- res
				return
			case <-tick.C:
			}
			sp := s.tr.root("fleet.RunRound", 0)
			t0 := time.Now()
			rr, err := s.ctl.RunRound()
			wall := time.Since(t0)
			s.tr.end(sp)
			s.rep.op("round", err)
			if err != nil {
				continue
			}
			s.round.Store(int64(rr.Round))
			res.rounds++
			res.roundMs = append(res.roundMs, ms(wall))
		}
	}()
	return b
}

func (b *background) stop() *bgResult {
	close(b.stopCh)
	return <-b.done
}

// predictBatchUs times the model's batch path directly on stable-batch
// sized slices of rows: the request's cost without HTTP/JSON.
func predictBatchUs(model *core.StablePredictor, rows [][]float64, n int) float64 {
	out := make([]float64, n)
	var ps core.PredictScratch
	var samples []float64
	for i := 0; i < 200; i++ {
		lo := i * n % (len(rows) - n + 1)
		t0 := time.Now()
		if err := model.PredictBatchInto(rows[lo:lo+n], out, &ps); err != nil {
			return math.NaN()
		}
		samples = append(samples, us(time.Since(t0)))
	}
	return median(samples)
}
