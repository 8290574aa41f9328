package main

import (
	"context"
	"fmt"

	"vmtherm/internal/core"
	"vmtherm/internal/dataset"
	"vmtherm/internal/workload"
)

// trainModel profiles cases and trains the stable model on them — the
// program's own set-up calls, timed as dataset.build_s and core.train_s.
func trainModel(ctx context.Context, st *setupTimer, cases []workload.Case, seed int64) (*core.StablePredictor, error) {
	var recs []dataset.Record
	if err := st.time("dataset.build_s", func() (err error) {
		recs, err = dataset.Build(ctx, cases, dataset.DefaultBuildOptions(seed))
		return err
	}); err != nil {
		return nil, fmt.Errorf("profiling %d experiments: %w", len(cases), err)
	}
	var model *core.StablePredictor
	if err := st.time("core.train_s", func() (err error) {
		model, err = core.TrainStable(ctx, recs, core.FastStableConfig())
		return err
	}); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return model, nil
}

// trainingSets generates the profiling experiments of each repeated
// set-up, n per set. Profiling and training take longer on some data than
// on other (the SVM's convergence), so each set-up gets a set of its own:
// setup_s, their median, then varies less from seed to seed than one set's
// time does. The last set trains the model the run measures.
func trainingSets(seed int64, n, setups int) ([][]workload.Case, error) {
	sets := make([][]workload.Case, setups)
	for i := range sets {
		var err error
		if sets[i], err = workload.GenerateCases(workload.DefaultGenOptions(), seed, fmt.Sprintf("train%d", i), n); err != nil {
			return nil, err
		}
	}
	return sets, nil
}

// heldOutMSE is the trained model's mean squared error on held-out
// profiled experiments, computed here from the records' measured ψ_stable.
func heldOutMSE(model *core.StablePredictor, test []dataset.Record) (float64, error) {
	var sum float64
	for _, rec := range test {
		p, err := model.PredictFeatures(rec.Features)
		if err != nil {
			return 0, err
		}
		d := p - rec.StableTemp
		sum += d * d
	}
	return sum / float64(len(test)), nil
}

// paperStableMSE is the paper's Fig. 1(a) bound on the average MSE of
// stable prediction over held-out cases.
const paperStableMSE = 1.10

// vmPool generates n dynamically profiled VM specs (time-varying task
// loads) named after base, with shapes drawn from the paper's flavors.
func vmPool(seed int64, base string, n int) ([]workload.VMSpec, error) {
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = n, n
	// One case carries the whole pool, so give it room for every VM.
	opts.Host.Cores = 1 << 20
	opts.Host.MemoryGB = 1 << 24
	opts.Dynamic = true
	c, err := workload.GenerateCase(opts, seed, base)
	if err != nil {
		return nil, err
	}
	if len(c.VMs) != n {
		return nil, fmt.Errorf("vm pool %s: generated %d VMs, want %d", base, len(c.VMs), n)
	}
	return c.VMs, nil
}
