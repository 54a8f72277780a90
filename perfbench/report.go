package main

// Metrics, the environment stamp, the printed report and the compare
// subcommand.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number. Value is nil when the workload sends
// no request of the metric's class; Percentile names the percentile a
// tail metric reports when it is not the one in its name.
type metric struct {
	Value      *float64 `json:"value"`
	Unit       string   `json:"unit"`
	N          int      `json:"n,omitempty"`
	Percentile float64  `json:"percentile,omitempty"`
}

func val(v float64, unit string, n int) metric {
	return metric{Value: &v, Unit: unit, N: n}
}

// stamp identifies the environment a result was measured in. Results
// are comparable only when every field but Source agrees.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Backend    string `json:"backend"`
	FlushMode  string `json:"flush_policy"`
	// Source is a SHA-256 over the checkout's Go sources and module
	// files: the commit measured, also where no git metadata exists.
	Source string `json:"source"`
}

// flushPolicy describes the fs backend as shipped.
const flushPolicy = "durable appends (segment, ledger, live journal fsynced); atomic writes (manifest, run XML) renamed but not fsynced"

func environment(root, backend string) (stamp, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return stamp{}, err
	}
	return stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Backend:    backend,
		FlushMode:  flushPolicy,
		Source:     src,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every .go, go.mod and
// go.sum file under root, skipping hidden directories (.git,
// .bench_build).
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		n := d.Name()
		if strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report is everything one run measured.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Stamp     stamp    `json:"stamp"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     []string `json:"wrong,omitempty"`
	Errors    []string `json:"errors,omitempty"` // the first failed requests
	// Breakdown has one line per request kind: count and latency
	// percentiles, to show which requests make up a tail.
	Breakdown []string          `json:"breakdown,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Backend (traced runs) counts the decorator's calls by operation
	// and key class.
	Backend []string `json:"backend,omitempty"`
	// Ladder (traced runs) sums the per-layer medians along the
	// headline request's path, to set against its measured median.
	Ladder string `json:"ladder,omitempty"`
	// Gated names the metrics of the final line, in order: the
	// end-to-end metrics of BENCHMARK.json, or its per-layer ones.
	Gated []string `json:"gated"`
}

// gatedEndToEnd are BENCHMARK.json's end-to-end metrics. ops_per_s is
// printed but not gated: on diff-cold it is the clients' reciprocal of
// the mean latency, on mixed-live the offered rate.
var gatedEndToEnd = []string{
	"setup_s", "latency_per_ref", "restart_per_ref", "bytes_per_user_byte", "max_rss_mb",
}

// headline lists, per workload, the request kinds behind latency_ms:
// the requests each workload exists to time. On mixed-live these are
// the kinds with enough samples per run for a steady figure; outliers
// (a handful per run) and the deletes that follow imports are printed
// per kind but left out.
var headline = map[string][]string{
	wlDiffCold:  {"diff"},
	wlMixedLive: {"hot_diff", "diff", "ingest", "live", "nearest", "cluster"},
}

// isHeadline reports whether o is a successful headline request.
func isHeadline(workload string, o outcome) bool {
	return o.Err == nil && slices.Contains(headline[workload], o.kind())
}

// headlineLatency is latency_ms: the geometric mean of the
// interquartile mean latency of each headline kind, over successful
// requests. With one kind it is that kind's interquartile mean. With
// several it weighs each kind alike, so the figure does not depend on
// the offered rates, and a kind whose latency doubles moves it by
// 2^(1/k). It is nil when a headline kind has no successful request.
func headlineLatency(workload string, outs []outcome) metric {
	byKind := map[string][]float64{}
	n := 0
	for _, o := range outs {
		if isHeadline(workload, o) {
			byKind[o.kind()] = append(byKind[o.kind()], o.MS)
			n++
		}
	}
	mt := metric{Unit: "ms", N: n}
	logSum := 0.0
	for _, k := range headline[workload] {
		if len(byKind[k]) == 0 {
			return mt
		}
		logSum += math.Log(interquartileMean(byKind[k]))
	}
	v := math.Exp(logSum / float64(len(headline[workload])))
	mt.Value = &v
	return mt
}

// tolerated reports whether a failed request is one of mixed-live's
// known failures at the parent commit: a live-run batch answered 404
// because a concurrent delete removed the drift baseline's medoid
// (server.baseline), or the 400 the same run's next batch then gets.
func tolerated(workload string, o outcome) bool {
	var es *errStatus
	return workload == wlMixedLive && o.Class == "live" && errors.As(o.Err, &es) &&
		(es.code == http.StatusNotFound || es.code == http.StatusBadRequest)
}

// maxToleratedShare bounds the tolerated failures of a mixed-live run,
// as a share of its attempted requests: five times the rate observed
// at the parent commit (about 1 in 1000).
const maxToleratedShare = 0.005

// latency adds name_p50_ms and name_pXX_ms for a latency class; the
// tail is the highest percentile of {q, lower} with ten samples
// beyond it.
func latency(m map[string]metric, name string, ms []float64, q float64) {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	p50, tail := metric{Unit: "ms", N: len(sorted)}, metric{Unit: "ms", N: len(sorted)}
	if len(sorted) > 0 {
		v := percentile(sorted, 50)
		p50.Value = &v
	}
	if hq, ok := highestPercentile(len(sorted)); ok {
		hq = math.Min(hq, q)
		t := percentile(sorted, hq)
		tail.Value = &t
		if hq != q {
			tail.Percentile = hq
		}
	}
	m[name+"_p50_ms"] = p50
	m[fmt.Sprintf("%s_p%g_ms", name, q)] = tail
}

// interquartileMean is the mean of the middle half of xs: the lowest
// and the highest quarter are dropped. The host this benchmark was
// sized on runs at two speeds. A median jumps from one speed's latency
// to the other's when the share of slow requests crosses a half; this
// mean moves with that share, and the trimming keeps stalls and
// queueing tails out of it.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report folds an untraced run into its end-to-end metrics.
func (b *bench) report(st stamp) *report {
	rep := &report{
		Workload: b.cfg.workload, Seed: b.cfg.seed, Seconds: b.cfg.seconds,
		Stamp: st, Metrics: map[string]metric{}, Gated: gatedEndToEnd,
	}
	m := rep.Metrics
	outs := b.rec.outcomes
	failed, refused, ok, known := 0, 0, 0, 0
	for _, o := range outs {
		switch {
		case o.Err == nil:
			ok++
			continue
		case o.Refused:
			refused++
		default:
			failed++
		}
		if tolerated(b.cfg.workload, o) {
			known++
		}
		if len(rep.Errors) < 20 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s %s %s/%s: %v", o.Class, o.Op.Kind, o.Op.A, o.Op.B, o.Err))
		}
	}
	rep.Attempted = len(outs) + b.extra
	rep.Wrong = b.wrong
	rep.Failed = failed + refused + len(b.wrong)
	// A request that failed for any but the known reason makes the run
	// incorrect, as do more known failures than maxToleratedShare.
	rep.Correct = len(b.wrong) == 0 && failed+refused == known &&
		float64(known) <= maxToleratedShare*float64(rep.Attempted)
	m["setup_raw_s"] = val(median(b.setups), "s", len(b.setups))
	m["ops_per_s"] = val(float64(ok)/b.phaseSec, "ops/s", ok)
	m["error_rate"] = val(float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio", rep.Attempted)
	latency(m, "diff", b.rec.samples("diff"), 99)
	latency(m, "ingest", b.rec.samples("ingest"), 99)
	latency(m, "live", b.rec.samples("live"), 99)
	latency(m, "analytics", b.rec.samples("analytics"), 90)
	m["latency_ms"] = headlineLatency(b.cfg.workload, outs)
	m["restart_ms"] = val(interquartileMean(b.restarts), "ms", len(b.restarts))
	// The gated timings are divided by the reference kernel's time in
	// the same window, which cancels the host's speed (ref.go).
	// setup_s, which must stay in seconds, is stated at the speed at
	// which the kernel takes refNominalMS.
	perRef := func(name, unit string, scale float64, mt metric, from, to time.Time) {
		var ref []float64
		if b.ref != nil {
			ref = b.ref.within(from, to)
		}
		out := metric{Unit: unit, N: len(ref)}
		if mt.Value != nil && len(ref) > 0 {
			v := *mt.Value * scale / interquartileMean(ref)
			out.Value = &v
		}
		m[name] = out
	}
	perRef("setup_s", "s", refNominalMS, m["setup_raw_s"], b.setupFrom, b.setupTo)
	perRef("latency_per_ref", "ratio", 1, m["latency_ms"], b.phaseFrom, b.phaseTo)
	perRef("restart_per_ref", "ratio", 1, m["restart_ms"], b.restartFrom, b.restartTo)
	if b.ref != nil {
		if ref := b.ref.within(b.phaseFrom, b.phaseTo); len(ref) > 0 {
			m["ref_ms"] = val(interquartileMean(ref), "ms", len(ref))
		}
	}
	m["bytes_per_user_byte"] = val(median(b.bpub), "ratio", len(b.bpub))
	m["max_rss_mb"] = val(maxRSSMiB(), "MiB", 1)
	rep.Breakdown = breakdown(outs)
	if lags := b.rec.lags; len(lags) > 0 {
		sorted := append([]float64(nil), lags...)
		sort.Float64s(sorted)
		m["loadgen.lag_p99_ms"] = val(percentile(sorted, 99), "ms", len(sorted))
	}
	return rep
}

// lines renders the report for people: the stamp, then one line per
// metric with its unit and sample count, then any wrong answers.
func (r *report) lines() []string {
	st, _ := json.Marshal(r.Stamp)
	out := []string{fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%v", r.Workload, r.Seed, r.Seconds, r.Trace),
		"stamp " + string(st)}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mt := r.Metrics[n]
		v := "n/a"
		if mt.Value != nil {
			v = fmt.Sprintf("%.6g", *mt.Value)
		}
		line := fmt.Sprintf("metric %-36s %14s %-6s n=%d", n, v, mt.Unit, mt.N)
		if mt.Percentile != 0 {
			line += fmt.Sprintf(" (p%g: too few samples for the named percentile)", mt.Percentile)
		}
		out = append(out, line)
	}
	if r.Ladder != "" {
		out = append(out, "ladder "+r.Ladder)
	}
	for _, l := range r.Backend {
		out = append(out, "backend "+l)
	}
	for _, l := range r.Breakdown {
		out = append(out, "kind "+l)
	}
	for _, e := range r.Errors {
		out = append(out, "failed "+e)
	}
	for i, w := range r.Wrong {
		if i == 20 {
			out = append(out, fmt.Sprintf("wrong ... %d more", len(r.Wrong)-i))
			break
		}
		out = append(out, "wrong "+w)
	}
	return out
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// result is the final line: the gated metrics only. A gated metric the
// run could not measure makes the result incorrect rather than
// printing a made-up number.
func (r *report) result() result {
	res := result{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]resultMetric{}}
	for _, n := range r.Gated {
		mt := r.Metrics[n]
		if mt.Value == nil || math.IsNaN(*mt.Value) || math.IsInf(*mt.Value, 0) {
			res.Correct = false
			continue
		}
		res.Metrics[n] = resultMetric{Value: *mt.Value, Unit: mt.Unit}
	}
	return res
}

// compareMain prints per-metric ratios between two reports written
// with --out, refusing when their environments differ.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var reps [2]report
	for i, p := range fs.Args() {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 2
		}
	}
	a, b := reps[0], reps[1]
	sa, sb := a.Stamp, b.Stamp
	sa.Source, sb.Source = "", ""
	if sa != sb || a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "perfbench compare: refusing to compare results from different environments or settings:\n  %+v %s %ds\n  %+v %s %ds\n",
			a.Stamp, a.Workload, a.Seconds, b.Stamp, b.Workload, b.Seconds)
		return 3
	}
	fmt.Fprintf(stdout, "workload %s: source %s -> %s\n", a.Workload, a.Stamp.Source, b.Stamp.Source)
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Metrics[n], b.Metrics[n]
		if ma.Value == nil || mb.Value == nil {
			continue
		}
		ratio := math.NaN()
		if *ma.Value != 0 {
			ratio = *mb.Value / *ma.Value
		}
		fmt.Fprintf(stdout, "%-36s %14.6g %14.6g  x%.4f %s\n", n, *ma.Value, *mb.Value, ratio, ma.Unit)
	}
	return 0
}

// highestPercentile returns the highest percentile of a fixed ladder
// that leaves at least ten of n samples beyond it, and false when
// even the median does not.
func highestPercentile(n int) (float64, bool) {
	for _, q := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(n)*(1-q/100) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// percentile is nearest-rank over sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// breakdown summarizes the latency of successful requests per kind,
// with each kind's failures counted apart.
func breakdown(outs []outcome) []string {
	byKind := map[string][]float64{}
	failed := map[string]int{}
	for _, o := range outs {
		for _, k := range []string{"(all)", o.kind()} {
			if o.Err != nil {
				failed[k]++
			} else {
				byKind[k] = append(byKind[k], o.MS)
			}
		}
	}
	var lines []string
	for k, ms := range byKind {
		sort.Float64s(ms)
		lines = append(lines, fmt.Sprintf("%-9s n=%-6d failed=%-3d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms",
			k, len(ms), failed[k], percentile(ms, 50), percentile(ms, 90), percentile(ms, 99), ms[len(ms)-1]))
	}
	sort.Strings(lines)
	return lines
}
