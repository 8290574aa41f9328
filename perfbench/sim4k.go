package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/fleet"
	"vmtherm/internal/workload"
)

// simScale sizes the sim-4k workload; tests run it tiny.
type simScale struct {
	racks, hostsPerRack   int
	trainCases, testCases int
	churn                 int // VMs placed, and as many removed, per round
	warmRounds            int
	page                  int // hosts per prediction read
	setups                int
	maxRoundsPerS         int // bounds the pre-generated churn inputs
}

var sim4k = simScale{
	racks: 64, hostsPerRack: 64,
	trainCases: 160, testCases: 100,
	churn: 16, warmRounds: 4, page: 1024, setups: 3,
	maxRoundsPerS: 60,
}

// runSim runs closed-loop rounds over a simulated fleet with steady VM
// churn.
func runSim(ctx context.Context, sc simScale, rc runConfig, rep *report) error {
	hosts := sc.racks * sc.hostsPerRack

	// Inputs, generated before anything is timed.
	trainSets, err := trainingSets(rc.seed, sc.trainCases, sc.setups)
	if err != nil {
		return err
	}
	testCases, err := workload.GenerateCases(workload.DefaultGenOptions(), rc.seed+1, "test", sc.testCases)
	if err != nil {
		return err
	}
	testRecs, err := dataset.Build(ctx, testCases, dataset.DefaultBuildOptions(rc.seed))
	if err != nil {
		return err
	}
	base, err := vmPool(rc.seed, "base", hosts/2)
	if err != nil {
		return err
	}
	// The measured phase starts once churn has replaced every base VM: until
	// then the fleet's layout, and with it the physics' cost per round, is
	// still moving away from the even-host start (the simulator's advance
	// went from 16.4 ms to about 19.5 ms per round over the turnover).
	rampRounds := len(base) / sc.churn
	maxRounds := int(math.Ceil(rc.seconds))*sc.maxRoundsPerS + rampRounds + 1
	churn, err := vmPool(rc.seed, "churn", maxRounds*sc.churn)
	if err != nil {
		return err
	}
	cfg := fleet.DefaultConfig()
	cfg.Racks, cfg.HostsPerRack = sc.racks, sc.hostsPerRack
	cfg.Seed = rc.seed
	inputsMB := liveHeapMB()

	// Set-up, repeated; the last one is measured.
	st := newSetupTimer(rc.tr)
	var (
		ctl   *fleet.Controller
		model *core.StablePredictor
		pst   = &predictorStats{}
	)
	for i := 0; i < sc.setups; i++ {
		ctl, model = nil, nil
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
			return nil
		}); err != nil {
			return fmt.Errorf("building the fleet: %w", err)
		}
		if err := st.time("fleet.warm_s", func() error {
			for r := 0; r < sc.warmRounds; r++ {
				if _, err := ctl.RunRound(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		st.done()
	}

	// The paper averages over 20 held-out cases; one badly predicted case
	// moves a 20-case mean by more than its whole typical value, so the
	// gate averages over five times as many.
	mse, err := heldOutMSE(model, testRecs)
	if err != nil {
		return err
	}
	mse20, err := heldOutMSE(model, testRecs[:min(20, len(testRecs))])
	if err != nil {
		return err
	}
	rep.note("stable model: %d support vectors, held-out MSE %.3f on %d cases, %.3f on the first 20 (paper bound %.2f)",
		model.NumSV(), mse, len(testRecs), mse20, paperStableMSE)
	if !(mse <= paperStableMSE) {
		rep.fail("held-out stable MSE %.3f exceeds the paper's %.2f", mse, paperStableMSE)
	}

	// Steady churn: remove the oldest VMs as new ones land, so occupancy
	// stays level and every round re-anchors the hosts it touched.
	fifo := make([]string, 0, len(base)+len(churn))
	for _, spec := range base {
		fifo = append(fifo, spec.ID)
	}
	var (
		next                  int
		placeMs, removeUs     []float64
		placed, rejected, bat int
	)
	step := func(group int) (bool, error) {
		if next+sc.churn > len(churn) {
			return false, nil
		}
		batch := churn[next : next+sc.churn]
		next += sc.churn
		sp := rc.tr.root("fleet.PlaceBatch", group)
		t0 := time.Now()
		decs, err := ctl.PlaceBatch(batch)
		placeMs = append(placeMs, ms(time.Since(t0)))
		rc.tr.end(sp)
		if err == nil {
			err = checkDecisions(batch, decs)
		}
		rep.op("place_batch", err)
		bat++
		n := 0
		for _, d := range decs {
			switch d.Status {
			case fleet.Placed:
				fifo = append(fifo, d.VMID)
				n++
			case fleet.Rejected:
				rejected++
			}
		}
		placed += n
		for ; n > 0 && len(fifo) > 0; n-- {
			id := fifo[0]
			fifo = fifo[1:]
			sp := rc.tr.root("fleet.RemoveVM", group)
			t0 := time.Now()
			err := ctl.RemoveVM(id)
			removeUs = append(removeUs, us(time.Since(t0)))
			rc.tr.end(sp)
			rep.op("remove_vm", err)
		}
		return true, nil
	}

	ids := ctl.Hosts()
	loop := &roundLoop{
		ctl: ctl, ids: ids, page: sc.page, tr: rc.tr, rep: rep, pred: pst,
		gapS: cfg.GapS, ref: dieTempRef(ctl, ids), perWindow: 8,
		step: step,
	}
	loop.init(int(math.Round(cfg.GapS / cfg.UpdateEveryS)))

	if err := loop.ramp(rampRounds); err != nil {
		return err
	}
	res, untraced, err := measurePhases(loop, rc)
	if err != nil {
		return err
	}
	heap := liveHeapMB() - inputsMB
	runtime.KeepAlive(ctl)
	runtime.KeepAlive(loop)
	runtime.KeepAlive(testRecs)
	runtime.KeepAlive(trainSets)
	rep.note("heap_mb leaves out %.3f MB of live heap after input generation", inputsMB)

	roundMetrics(rep, res, untraced, heap, st, model.NumSV())
	rep.layer["fleet.placed_per_round"] = metric{float64(placed) / float64(max(bat, 1)), "count"}
	rep.layer["fleet.rejected_per_round"] = metric{float64(rejected) / float64(max(bat, 1)), "count"}
	rep.layer["checkpoint.bytes"] = metric{0, "B"}
	rep.extra["sim.advance_ms_p50"] = metric{median(res.advanceMs), "ms"}
	rep.extra["fleet.place_batch_ms_p50"] = metric{median(placeMs), "ms"}
	rep.extra["fleet.remove_vm_us_p50"] = metric{median(removeUs), "us"}
	return gradeMAE(rep, res)
}

// checkDecisions checks one batch's typed outcomes: one decision per VM in
// request order, and every rejection carries a reject code.
func checkDecisions(batch []workload.VMSpec, decs []fleet.PlacementDecision) error {
	if len(decs) != len(batch) {
		return fmt.Errorf("%d decisions for %d VMs", len(decs), len(batch))
	}
	var placed, queued, rejected int
	for i, d := range decs {
		if d.VMID != batch[i].ID {
			return fmt.Errorf("decision %d is for %s, want %s", i, d.VMID, batch[i].ID)
		}
		switch d.Status {
		case fleet.Placed:
			placed++
		case fleet.Queued:
			queued++
		case fleet.Rejected:
			rejected++
			if d.Code == fleet.RejectNone {
				return fmt.Errorf("rejection of %s carries no reject code", d.VMID)
			}
		}
	}
	if placed+queued+rejected != len(batch) {
		return fmt.Errorf("placed %d + queued %d + rejected %d != submitted %d", placed, queued, rejected, len(batch))
	}
	return nil
}
