// Command perfbench is vmtherm's benchmark: it runs one named workload (or
// all of them) in a single process on at most two cores, checks the
// program's outputs, and prints every end-to-end metric — or, traced, every
// per-layer metric — as the last line of its output. See README.md.
//
// Usage:
//
//	perfbench --workload sim-4k --seed 1 --seconds 20 --trace 0
//	perfbench --workload serve-1k --seed 1 --seconds 20 --trace 1 --spans .bench_build/spans.jsonl
//	perfbench compare [--bench BENCHMARK.json] <result dir A> <result dir B>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// runConfig is what every workload run receives.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	tr      *tracer // nil when untraced
}

// workloadDef names one workload and how to run it.
type workloadDef struct {
	name string
	run  func(ctx context.Context, rc runConfig, rep *report) error
}

var workloads = []workloadDef{
	{"sim-4k", func(ctx context.Context, rc runConfig, rep *report) error { return runSim(ctx, sim4k, rc, rep) }},
	{"replay-16k", func(ctx context.Context, rc runConfig, rep *report) error { return runReplay(ctx, replay16k, rc, rep) }},
	{"serve-1k", func(ctx context.Context, rc runConfig, rep *report) error { return runServe(ctx, serve1k, rc, rep) }},
}

// The metric names each output line carries: every end-to-end metric in an
// untraced run, every per-layer metric in a traced one.
var (
	e2eNames = []string{
		"setup_s", "round_ms_p50", "hosts_per_s", "cpu_us_per_host",
		"req_ms_p50", "req_per_s", "cpu_us_per_req", "pred_mae_c", "heap_mb",
	}
	// The tails round_ms_p95 and req_ms_p99 are reported with the per-layer
	// figures, unbounded: the share of rounds and requests that meet a GC
	// cycle, a background round or a stall of the machine is near the tail's
	// share, so from run to run the tail falls in the fast or the slow
	// population.
	layerNames = []string{
		"round_ms_p95", "req_ms_p99",
		"dataset.build_s", "core.train_s", "svm.support_vectors", "fleet.build_s", "fleet.warm_s",
		"fleet.control_ms_p50", "telemetry.advance_ms_p50", "telemetry.readings_per_round",
		"anchor.predict_ms_per_round", "anchor.cases_per_round",
		"anchorcache.hit_ratio", "anchorcache.lookups_per_round",
		"engine.reanchored_per_round", "engine.sessions_live",
		"fleet.placed_per_round", "fleet.rejected_per_round", "checkpoint.bytes",
		"fleet.stream_applied", "fleet.stream_deferred",
		"go.allocs_per_host", "go.alloc_bytes_per_host", "go.gc_cpu_ms_per_round",
		"go.allocs_per_req", "go.alloc_bytes_per_req",
		"trace.hosts_per_s_overhead_pct", "trace.req_per_s_overhead_pct",
	}
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain() error {
	var (
		name    = flag.String("workload", "", "workload to run: sim-4k, replay-16k, serve-1k or all")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
		spans   = flag.String("spans", filepath.Join(".bench_build", "spans.jsonl"), "traced runs: write the spans here as JSON lines")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	runtime.GOMAXPROCS(2)

	var spanOut *os.File
	if *trace == 1 {
		if err := os.MkdirAll(filepath.Dir(*spans), 0o755); err != nil {
			return err
		}
		f, err := os.Create(*spans)
		if err != nil {
			return err
		}
		defer f.Close()
		spanOut = f
	}
	ctx := context.Background()
	for _, w := range defs {
		rc := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}
		if rc.traced {
			rc.tr = newTracer()
			rc.tr.on.Store(true)
		}
		fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
			w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
		rep := newReport()
		if err := w.run(ctx, rc, rep); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.print(os.Stdout, w.name)
		if rc.traced {
			sp := rc.tr.snapshot()
			printLayerTimes(os.Stdout, w.name, sp)
			printExtras(rep)
			if spanOut != nil {
				if err := writeSpans(spanOut, w.name, sp); err != nil {
					return fmt.Errorf("writing spans: %w", err)
				}
			}
		}
		line, err := resultLine(rep, rc.traced)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Println(line)
	}
	if spanOut != nil {
		return spanOut.Close()
	}
	return nil
}

// printExtras prints the per-layer figures of layers only this workload
// exercises; they are not part of the result line, which every workload
// fills with the same names.
func printExtras(rep *report) {
	names := make([]string, 0, len(rep.extra))
	for n := range rep.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.extra[n]
		fmt.Printf("layer %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// resultLine renders the run's result object, refusing to print a metric
// set that is incomplete or holds a non-finite value.
func resultLine(rep *report, traced bool) (string, error) {
	names, src := e2eNames, rep.e2e
	if traced {
		names, src = layerNames, rep.layer
	}
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		if !finite(m.Value) {
			return "", fmt.Errorf("metric %s is %v", n, m.Value)
		}
		out[n] = m
	}
	attempted, failed := rep.totals()
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), attempted, failed, out})
	return string(b), err
}
