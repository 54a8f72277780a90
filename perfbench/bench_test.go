package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := generate(name, 7, 5)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(name, 7, 5)
			if err != nil {
				t.Fatal(err)
			}
			c, err := generate(name, 8, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Ops) == 0 {
				t.Fatal("empty op sequence")
			}
			if a.digest() != b.digest() {
				t.Error("same seed gave different documents or op sequences")
			}
			if a.digest() == c.digest() {
				t.Error("different seeds gave identical documents and op sequences")
			}
		})
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{{19, 0, false}, {20, 50, true}, {100, 90, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestCanonicalIgnoresTieOrder(t *testing.T) {
	a := canonical([]outlierScore{{"x", 3}, {"y", 3}, {"z", 1}}, nil)
	b := canonical([]outlierScore{{"y", 3}, {"x", 3}, {"z", 1}}, nil)
	if a != b {
		t.Errorf("tie order changed the canonical form: %q vs %q", a, b)
	}
	c := canonical([]outlierScore{{"x", 3}, {"y", 2}}, nil)
	d := canonical([]outlierScore{{"y", 3}, {"x", 2}}, nil)
	if c != d {
		return
	}
	t.Errorf("different scores share a canonical form: %q", c)
}

func TestFailuresDecideCorrect(t *testing.T) {
	ok := func(kind opKind, ms float64) outcome {
		o := outcome{Op: op{Kind: kind}, MS: ms, Class: "diff"}
		switch kind {
		case opLive:
			o.Class = "live"
		case opIngest:
			o.Class = "ingest"
		case opNearest, opCluster:
			o.Class = "analytics"
		}
		return o
	}
	failed := func(kind opKind, code int) outcome {
		o := ok(kind, 0.01)
		finish(&o, &errStatus{code: code})
		return o
	}
	run := func(workload string, outs ...outcome) *report {
		b := &bench{cfg: config{workload: workload}, rec: &recorder{outcomes: outs}}
		return b.report(stamp{})
	}
	// The six headline kinds' latencies are 1, 2, 4, 8, 16 and 32 ms:
	// latency_ms is their geometric mean, 2^2.5, however many
	// requests of each kind were sent.
	gm := math.Pow(2, 2.5)
	mixed := []outcome{ok(opHotDiff, 1), ok(opDiff, 2), ok(opIngest, 4), ok(opLive, 8), ok(opNearest, 16), ok(opCluster, 32)}
	for i := 0; i < 300; i++ {
		mixed = append(mixed, ok(opHotDiff, 1))
	}
	for _, tc := range []struct {
		name    string
		rep     *report
		correct bool
		latency float64
	}{
		{"diff-cold clean", run(wlDiffCold, ok(opDiff, 4), ok(opDiff, 6), ok(opDiff, 5)), true, 5},
		{"diff-cold failure", run(wlDiffCold, ok(opDiff, 4), failed(opDiff, 500), ok(opDiff, 6)), false, 5},
		{"mixed-live clean", run(wlMixedLive, mixed...), true, gm},
		{"mixed-live known live 404", run(wlMixedLive, append(slices.Clone(mixed), failed(opLive, 404))...), true, gm},
		{"mixed-live diff failure", run(wlMixedLive, append(slices.Clone(mixed), failed(opDiff, 500))...), false, gm},
		{"mixed-live ingest refused", run(wlMixedLive, append(slices.Clone(mixed), failed(opIngest, 503))...), false, gm},
		{"mixed-live too many live 404s", run(wlMixedLive, append(slices.Clone(mixed), failed(opLive, 404), failed(opLive, 400))...), false, gm},
	} {
		if tc.rep.Correct != tc.correct {
			t.Errorf("%s: correct = %v, want %v", tc.name, tc.rep.Correct, tc.correct)
		}
		got := tc.rep.Metrics["latency_ms"].Value
		if got == nil || math.Abs(*got-tc.latency) > 1e-9 {
			t.Errorf("%s: latency_ms = %v, want %v (failed requests must not count)", tc.name, tc.rep.Metrics["latency_ms"], tc.latency)
		}
	}
}

// resources counts what a leaked session would leave in this process.
func resources() (fds, goroutines int) {
	ents, _ := os.ReadDir("/proc/self/fd")
	return len(ents), runtime.NumGoroutine()
}

// settle waits until the process holds no more descriptors and
// goroutines than the baseline, and reports what it last saw.
func settle(baseFDs, baseG int) (fds, goroutines int) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		fds, goroutines = resources()
		if (fds <= baseFDs && goroutines <= baseG) || time.Now().After(deadline) {
			return fds, goroutines
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 1, trace: trace, conns: 2, root: t.TempDir(), src: ".."}
}

// leftovers lists the scratch directories a session left under root.
func leftovers(t *testing.T, root string) []string {
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestSessionLeavesNothingRunning(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole sessions")
	}
	baseFDs, baseG := baseline(t)
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{wlDiffCold, false}, {wlMixedLive, true}} {
		cfg := tinyConfig(t, tc.workload, tc.trace)
		if tc.trace {
			cfg.seconds = 3 // several trace windows
		}
		rep, err := execute(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		res := rep.result()
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: result %+v, wrong answers %v", tc.workload, res, rep.Wrong)
		}
		checkContract(t, tc.trace, res)
		if tc.trace {
			// The report prints every per-layer metric, n/a where the
			// workload does not exercise the layer.
			for _, n := range append(slices.Clone(perLayer), workloadLayers...) {
				if _, ok := rep.Metrics[n]; !ok {
					t.Errorf("%s: traced report lacks %s", tc.workload, n)
				}
			}
		}
		if left := leftovers(t, cfg.root); len(left) > 0 {
			t.Errorf("%s: scratch directories left behind: %v", tc.workload, left)
		}
		if fds, g := settle(baseFDs, baseG); fds > baseFDs || g > baseG {
			t.Errorf("%s: after the session %d descriptors (baseline %d), %d goroutines (baseline %d)", tc.workload, fds, baseFDs, g, baseG)
		}
	}
}

// checkContract requires the result line to hold exactly the metrics
// BENCHMARK.json lists for the mode, in its units.
func checkContract(t *testing.T, trace bool, res result) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing from the result", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
	}
}

// baseline runs a first session, which initializes the runtime's
// network poller and other one-time state, and returns the descriptor
// and goroutine counts once it has settled.
func baseline(t *testing.T) (fds, goroutines int) {
	if _, err := execute(context.Background(), tinyConfig(t, wlDiffCold, false)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	return resources()
}

func TestCancelledSessionLeavesNothingRunning(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole sessions")
	}
	baseFDs, baseG := baseline(t)
	for _, after := range []time.Duration{300 * time.Millisecond, 7 * time.Second} {
		cfg := tinyConfig(t, wlMixedLive, false)
		cfg.seconds = 30
		ctx, cancel := context.WithTimeout(context.Background(), after)
		start := time.Now()
		_, err := execute(ctx, cfg)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled after %v: err = %v, want the context's error", after, err)
		}
		if took := time.Since(start); took > after+10*time.Second {
			t.Errorf("cancelled after %v but returned after %v", after, took)
		}
		if left := leftovers(t, cfg.root); len(left) > 0 {
			t.Errorf("scratch directories left behind: %v", left)
		}
		if fds, g := settle(baseFDs, baseG); fds > baseFDs || g > baseG {
			t.Errorf("after cancelling at %v: %d descriptors (baseline %d), %d goroutines (baseline %d)", after, fds, baseFDs, g, baseG)
		}
	}
}

func TestSpanFileOnlyOutput(t *testing.T) {
	// The traced run's only lasting output is its span file.
	if testing.Short() {
		t.Skip("runs a whole session")
	}
	cfg := tinyConfig(t, wlDiffCold, true)
	if _, err := execute(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(cfg.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "spans-") || e.IsDir() {
			t.Errorf("unexpected output %s", filepath.Join(cfg.root, e.Name()))
		}
	}
}
