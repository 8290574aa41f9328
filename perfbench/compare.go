package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is one result file: a run's output, whose header line names
// the workload and whose last line is the result object.
type runResult struct {
	workload          string
	correct           bool
	attempted, failed int
	metrics           map[string]metric
}

// compareMain compares two sets of result files metric by metric: each
// side's median and quartiles, and whether the medians differ by more than
// the metric's bound, in which direction.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want two result directories (or files), got %d", fs.NArg())
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	worse, better := compare(os.Stdout, spec, a, b)
	fmt.Printf("%d metric(s) worse and %d better than their bound\n", worse, better)
	return nil
}

// loadResults reads every file under path (or path itself), grouped by
// workload.
func loadResults(path string) (map[string][]runResult, error) {
	var files []string
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	} else {
		files = []string{path}
	}
	out := make(map[string][]runResult)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		r, err := parseResult(fh)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.workload] = append(out[r.workload], r)
	}
	return out, nil
}

// parseResult reads one run's output.
func parseResult(r io.Reader) (runResult, error) {
	var res runResult
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# perfbench ") {
			for _, f := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(f, "workload="); ok {
					res.workload = v
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return res, err
	}
	if res.workload == "" {
		return res, fmt.Errorf("no workload header line")
	}
	var obj struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &obj); err != nil {
		return res, fmt.Errorf("last line is not a result object: %w", err)
	}
	res.correct, res.attempted, res.failed, res.metrics = obj.Correct, obj.Attempted, obj.Failed, obj.Metrics
	return res, nil
}

// compare prints the comparison and returns how many (workload, metric)
// pairs have B's median worse, and how many better, than A's by more than
// the metric's bound.
func compare(w io.Writer, spec benchSpec, a, b map[string][]runResult) (worse, better int) {
	var names []string
	for n := range a {
		if _, ok := b[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		ra, rb := a[wl], b[wl]
		fmt.Fprintf(w, "%s: %d vs %d runs, failed share %s vs %s\n", wl, len(ra), len(rb), failedShare(ra), failedShare(rb))
		fmt.Fprintf(w, "  %-16s %-5s %12s %12s %12s %7s | %12s %12s %12s %7s | %8s %6s  %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "change", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := (b2 - a2) / a2
			verdict := "within bound"
			if math.Abs(change) > m.Bound {
				if (change > 0) == (m.Better == "higher") {
					verdict = "BETTER beyond bound"
					better++
				} else {
					verdict = "WORSE beyond bound"
					worse++
				}
			}
			fmt.Fprintf(w, "  %-16s %-5s %12.5g %12.5g %12.5g %6.1f%% | %12.5g %12.5g %12.5g %6.1f%% | %+7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, a1, a2, a3, 100*(a3-a1)/a2, b1, b2, b3, 100*(b3-b1)/b2, 100*change, 100*m.Bound, verdict)
		}
	}
	return worse, better
}

func values(rs []runResult, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedShare(rs []runResult) string {
	var att, fail int
	for _, r := range rs {
		att += r.attempted
		fail += r.failed
	}
	if att == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d/%d", fail, att)
}
