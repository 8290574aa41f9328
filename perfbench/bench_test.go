package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMedianAndPercentileMatchSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		want := s[n/2]
		if n%2 == 0 {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		if got := median(xs); got != want {
			t.Errorf("n=%d: median %v, want %v", n, got, want)
		}
		for _, p := range []float64{0.5, 0.95, 0.99} {
			// Oracle: the smallest sample with at least p·n samples at or
			// below it.
			var oracle float64
			for i, v := range s {
				if float64(i+1) >= p*float64(n)-1e-9 {
					oracle = v
					break
				}
			}
			got, beyond := percentile(xs, p)
			if got != oracle {
				t.Errorf("n=%d p=%v: %v, want %v", n, p, got, oracle)
			}
			atOrBelow := sort.SearchFloat64s(s, math.Nextafter(got, math.Inf(1)))
			if beyond != n-atOrBelow {
				t.Errorf("n=%d p=%v: %d beyond, want %d", n, p, beyond, n-atOrBelow)
			}
		}
	}
	// A p99 over 1000 samples has ten beyond it, over 999 only nine.
	if _, b := percentile(make([]float64, 1000), 0.99); b != 10 {
		t.Errorf("p99 of 1000 samples: %d beyond, want 10", b)
	}
	if _, b := percentile(make([]float64, 999), 0.99); b != 9 {
		t.Errorf("p99 of 999 samples: %d beyond, want 9", b)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{0.5, 9, 2.5, 7, 1, 4, 8}, [3]float64{1, 4, 8}},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.data, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{10, 30}}, 80},
		// Overlapping children count once; parts outside the parent not at all.
		{[]interval{{10, 30}, {20, 40}, {90, 120}, {-5, 5}}, 55},
		{[]interval{{0, 100}, {10, 20}}, 0},
		{[]interval{{40, 50}, {10, 20}, {45, 60}}, 70},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("selfTime(%v) = %d, want %d", tc.kids, got, tc.want)
		}
	}
}

func TestLayerTimesFromHandBuiltSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Group: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Group: 1, Name: "predict", Start: 10, End: 40},
		{ID: 3, Parent: 1, Group: 1, Name: "predict", Start: 30, End: 50},
		{ID: 4, Group: 4, Name: "round", Start: 200, End: 260},
		{ID: 5, Group: 4, Name: "open", Start: 300, End: -1},
	}
	got := map[string]layerTime{}
	for _, lt := range layerTimes(spans) {
		got[lt.Name] = lt
	}
	if r := got["round"]; r.Count != 2 || r.TotalNs != 160 || r.SelfNs != 60+60 {
		t.Errorf("round: %+v, want 2 spans, 160 total, 120 self", r)
	}
	if p := got["predict"]; p.Count != 2 || p.TotalNs != 50 || p.SelfNs != 50 {
		t.Errorf("predict: %+v, want 2 spans, 50 total and self", p)
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was counted")
	}
}

func TestTracerParentsAndGroups(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	r := tr.root("round", 0)
	c := tr.child("predict")
	var wg sync.WaitGroup
	wg.Add(1)
	var w int
	go func() { // a worker goroutine of the program: falls back to the open root
		defer wg.Done()
		w = tr.child("predict")
		tr.end(w)
	}()
	wg.Wait()
	tr.end(c)
	read := tr.root("read", r)
	tr.end(read)
	tr.end(r)
	orphan := tr.child("predict")
	tr.end(orphan)
	sp := tr.snapshot()
	for _, tc := range []struct{ id, parent, group int }{
		{c, r, r}, {w, r, r}, {read, 0, r}, {orphan, 0, 0},
	} {
		s := sp[tc.id-1]
		if s.Parent != tc.parent || s.Group != tc.group || s.End < s.Start {
			t.Errorf("span %d %s: parent %d group %d, want %d %d", s.ID, s.Name, s.Parent, s.Group, tc.parent, tc.group)
		}
	}
	var disabled *tracer
	if id := disabled.root("x", 0); id != 0 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}

// tiny runs a workload at a small size with every output check on, traced
// and untraced, and checks the result line.
func tiny(t *testing.T, run func(ctx context.Context, rc runConfig, rep *report) error) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		rc := runConfig{seed: 3, seconds: 1, traced: traced}
		if traced {
			rc.tr = newTracer()
			rc.tr.on.Store(true)
		}
		rep := newReport()
		if err := run(context.Background(), rc, rep); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		rep.print(&out, "tiny")
		t.Log(out.String())
		line, err := resultLine(rep, traced)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		want := e2eNames
		if traced {
			want = layerNames
			if len(rc.tr.snapshot()) == 0 {
				t.Error("traced run recorded no spans")
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: correct %v, %d failed of %d, %d metrics (want %d)",
				traced, res.Correct, res.Failed, res.Attempted, len(res.Metrics), len(want))
		}
	}
}

func TestTinySim(t *testing.T) {
	tiny(t, func(ctx context.Context, rc runConfig, rep *report) error {
		return runSim(ctx, simScale{
			racks: 4, hostsPerRack: 16, trainCases: 60, testCases: 5,
			churn: 1, warmRounds: 2, page: 50, setups: 1, maxRoundsPerS: 4000,
		}, rc, rep)
	})
}

func TestTinyReplay(t *testing.T) {
	tiny(t, func(ctx context.Context, rc runConfig, rep *report) error {
		return runReplay(ctx, replayScale{
			recRacks: 2, recHostsPerRack: 8, preRounds: 4, recRounds: 24, tiles: 2,
			trainCases: 60, warmRounds: 2, page: 7, setups: 1, ckptEvery: 3, twinRounds: 2,
		}, rc, rep)
	})
}

func TestTinyServe(t *testing.T) {
	tiny(t, func(ctx context.Context, rc runConfig, rep *report) error {
		return runServe(ctx, serveScale{
			racks: 4, hostsPerRack: 16, trainCases: 24, warmRounds: 2, setups: 2,
			cadence: 20 * time.Millisecond, openRate: 200, openSenders: 2, clients: 2,
			readingsPerIngest: 4, rowsPerStable: 4, vmsPerPlace: 1, maxReqPerS: 40000,
		}, rc, rep)
	})
}

func TestCompareReportsBothDirections(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "heap_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	set := func(lat, rate, heap float64) map[string][]runResult {
		var rs []runResult
		for i := 0; i < 5; i++ {
			rs = append(rs, runResult{workload: "w", correct: true, attempted: 10, metrics: map[string]metric{
				"lat_ms": {lat, "ms"}, "rate": {rate, "1/s"}, "heap_mb": {heap, "MB"},
			}})
		}
		return map[string][]runResult{"w": rs}
	}
	for _, tc := range []struct {
		name          string
		b             map[string][]runResult
		worse, better int
		verdicts      []string
	}{
		// Latency halved and rate doubled: two improvements far beyond the
		// bound must be reported, not passed as within it.
		{"improvement", set(5, 200, 10), 0, 2, []string{"BETTER beyond bound"}},
		{"regression", set(20, 50, 10.5), 2, 0, []string{"WORSE beyond bound", "within bound"}},
		{"same", set(10, 100, 10), 0, 0, []string{"within bound"}},
	} {
		var out strings.Builder
		worse, better := compare(&out, spec, set(10, 100, 10), tc.b)
		if worse != tc.worse || better != tc.better {
			t.Errorf("%s: %d worse, %d better; want %d, %d\n%s", tc.name, worse, better, tc.worse, tc.better, out.String())
		}
		for _, v := range tc.verdicts {
			if !strings.Contains(out.String(), v) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, v, out.String())
			}
		}
	}
}

func TestWindowMedianAndRates(t *testing.T) {
	// Five windows of the same work; one meets a stall four times as long.
	// The median window's rate is the unstalled rate, where the whole-phase
	// rate would read 5/8 of it.
	var ws []window
	for i := 0; i < 5; i++ {
		w := window{wall: 100 * time.Millisecond, cpu: 150 * time.Millisecond, hosts: 1000,
			reads: 10, readWall: 2 * time.Millisecond, readCPU: 3 * time.Millisecond}
		if i == 2 {
			w.wall *= 4
		}
		ws = append(ws, w)
	}
	res := &loopResult{windows: ws}
	hostsPerS, readsPerS := res.rates()
	if hostsPerS != 10000 || readsPerS != 5000 {
		t.Errorf("rates %v hosts/s, %v reads/s; want 10000, 5000", hostsPerS, readsPerS)
	}
	if got := windowMedian(ws, func(w window) float64 { return us(w.readCPU) / float64(w.reads) }); got != 300 {
		t.Errorf("CPU per read %v us, want 300", got)
	}
	c := &closedResult{windows: []window{{wall: time.Second, reads: 100}, {wall: 2 * time.Second, reads: 100}, {wall: 500 * time.Millisecond, reads: 100}}}
	if got := c.reqPerS(); got != 100 {
		t.Errorf("closed-loop rate %v, want the median window's 100", got)
	}
}

func TestQuietKeepsTheLeastStolenQuarter(t *testing.T) {
	mk := func(stealMs ...int) []window {
		var ws []window
		for i, s := range stealMs {
			// 100 ms on the machine's CPUs each; hosts tags the window.
			ws = append(ws, window{wall: 100 * time.Millisecond / time.Duration(runtime.NumCPU()),
				steal: time.Duration(s) * time.Millisecond, hosts: i})
		}
		return ws
	}
	tags := func(ws []window) []int {
		var out []int
		for _, w := range ws {
			out = append(out, w.hosts)
		}
		return out
	}
	for _, tc := range []struct {
		steal []int
		want  []int
	}{
		// Eight windows: the two least stolen, in phase order.
		{[]int{30, 5, 20, 0, 25, 30, 10, 40}, []int{1, 3}},
		// Windows tied with the quarter's highest steal all stay: on an
		// unshared machine that is every window.
		{[]int{0, 0, 0, 0, 0}, []int{0, 1, 2, 3, 4}},
		{[]int{10, 0, 0, 20, 0, 30, 0, 40}, []int{1, 2, 4, 6}},
		// Fewer than four windows: the least stolen one.
		{[]int{7, 3, 9}, []int{1}},
	} {
		got := tags(quiet(mk(tc.steal...)))
		if !slices.Equal(got, tc.want) {
			t.Errorf("quiet(%v) kept windows %v, want %v", tc.steal, got, tc.want)
		}
	}
	if got := quiet(nil); got != nil {
		t.Errorf("quiet(nil) = %v", got)
	}
}
