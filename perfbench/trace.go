package main

// The traced run. It measures each layer from outside, through the
// seams the program exports:
//
//   - a counting, timing store.Backend decorator that classifies every
//     key (segment, ledger, manifest, run XML, live journal, spec);
//   - server.Options.OnRequestTiming, the per-request stage record;
//   - /v1/stats, read before and after every timed phase;
//   - an in-process replay of the workload's op sequence against the
//     layers' public functions, each call recorded as a span.
//
// Tracing is switched on in alternate one-second windows of the timed
// phase, so one process measures both sides of trace.overhead_ratio
// under the same conditions. Spans are kept in memory and written as
// JSON lines when the run ends.

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

const traceWindow = time.Second

// Replay bounds: the replay runs after the timed phase and must keep
// the whole run well inside its time limit.
const (
	replayDocs     = 512             // documents through the write path
	replayRestarts = 3               // reopen + PreloadAll repeats
	replayDiffs    = 400             // diffs through the read path
	replayLive     = 16              // live runs through the store
	replaySteps    = 16              // sliding-window steps of the cohort
	replayBudget   = 8 * time.Second // per section, checked between calls
)

// perLayer lists BENCHMARK.json's per-layer metrics in order: those
// every workload's own operations measure. The result line holds
// exactly these.
var perLayer = []string{
	"server.cache_hit_ratio", "server.engine_reuse_ratio", "server.self_ms",
	"wfxml.decode_ms", "wfrun.derive_ms",
	"sptree.index_ms", "core.diff_ms", "core.script_ms", "core.tree_nodes",
	"codec.encode_ms", "codec.hash_ms", "codec.decode_ms",
	"store.commit_ms", "store.preload_ms", "store.preload_from_xml", "store.load_run_ms",
	"backend.append_ms", "backend.write_ms", "backend.ops_per_run", "backend.bytes_written_per_user_byte",
	"backend.reads_per_restart", "backend.read_bytes_per_restart",
	"loadgen.lag_p99_ms", "trace.overhead_ratio",
}

// workloadLayers are the per-layer metrics only mixed-live exercises.
// The report prints them, n/a on diff-cold; they stay out of the
// result line, which must hold the same metrics on every workload.
var workloadLayers = []string{
	"server.stage_store_ms", "ingest.avg_batch", "ingest.max_depth", "ingest.rejected",
	"server.stage_diff_ms", "wfrun.live_append_ms", "wfrun.live_reused_ratio",
	"analysis.window_ms", "metricindex.pruned_ratio", "metricindex.exact_diffs_per_query",
	"cluster.nearest_ms", "cluster.outliers_ms", "cluster.kmedoids_ms",
}

// span is one timed call. Parent is the index of the enclosing span,
// -1 at the top. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// backendTally counts the decorator's traffic.
type backendTally struct {
	ops, reads, readBytes, writeBytes int64
}

// tracer holds what a traced run records.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	stack   []int // open spans of the replay goroutine
	timings []server.RequestTiming
	forced  bool // replay: record regardless of the window
	tally   backendTally
	byClass map[string]int64 // backend ops per "op key-class"
	appends []float64        // ms per durable Append
	writes  []float64        // ms per WriteFile
	stats   statsDelta
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byClass: map[string]int64{}}
}

// active reports whether at falls in a traced window.
func (t *tracer) active(at time.Time) bool {
	return (at.Sub(t.t0)/traceWindow)%2 == 1
}

func (t *tracer) recording() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.forced || t.active(time.Now())
}

func (t *tracer) onRequest(rt *server.RequestTiming) {
	if !t.active(rt.Start) {
		return
	}
	t.mu.Lock()
	t.timings = append(t.timings, *rt)
	t.mu.Unlock()
}

// snapshot reads the backend tally.
func (t *tracer) snapshot() backendTally {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tally
}

// begin opens a span under the innermost open one; end closes it.
// Only the replay goroutine opens spans.
func (t *tracer) begin(name string, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = int64(time.Since(t.t0))
	for j := len(t.stack) - 1; j >= 0; j-- {
		if t.stack[j] == i {
			t.stack = append(t.stack[:j], t.stack[j+1:]...)
			break
		}
	}
}

// adopt records a call made outside its caller as the caller's child
// by duration: the layer function is run again on its own, because
// the caller's internal call cannot be observed from outside.
func (t *tracer) adopt(parent int, name string, op int, fn func()) {
	i := t.begin(name, op)
	fn()
	t.end(i)
	t.mu.Lock()
	t.spans[i].Parent = parent
	t.mu.Unlock()
}

// traceCall runs fn inside a span.
func (t *tracer) traceCall(name string, op int, fn func()) int {
	i := t.begin(name, op)
	fn()
	t.end(i)
	return i
}

// keyClass names what a backend key holds.
func keyClass(key string) string {
	switch {
	case strings.HasSuffix(key, "/snapshot/runs.seg"):
		return "segment"
	case strings.HasSuffix(key, "/snapshot/ledger.log"):
		return "ledger"
	case strings.HasSuffix(key, "/snapshot/manifest.json"):
		return "manifest"
	case strings.Contains(key, "/runs/"):
		return "run_xml"
	case strings.Contains(key, "/live/"):
		return "live_journal"
	case strings.HasSuffix(key, "/spec.xml"), strings.HasSuffix(key, "/snapshot/spec.bin"):
		return "spec"
	}
	return "other"
}

// countingBackend is the tracer's store.Backend decorator. Calls made
// on the replay goroutine become spans; every call is counted while
// the tracer records.
type countingBackend struct {
	store.Backend
	t *tracer
}

func (t *tracer) wrapBackend(be store.Backend) store.Backend {
	return &countingBackend{Backend: be, t: t}
}

func (c *countingBackend) observe(op, key string, read, written int, fn func() error) error {
	t := c.t
	if !t.recording() {
		return fn()
	}
	t.mu.Lock()
	replay := t.forced
	t.mu.Unlock()
	var err error
	var d time.Duration
	if replay {
		i := t.begin("backend."+op, -1)
		t0 := time.Now()
		err = fn()
		d = time.Since(t0)
		t.end(i)
	} else {
		t0 := time.Now()
		err = fn()
		d = time.Since(t0)
	}
	ms := float64(d.Nanoseconds()) / 1e6
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tally.ops++
	t.byClass[op+" "+keyClass(key)]++
	switch op {
	case "append":
		t.appends = append(t.appends, ms)
		t.tally.writeBytes += int64(written)
	case "append_unsynced":
		t.tally.writeBytes += int64(written)
	case "write":
		t.writes = append(t.writes, ms)
		t.tally.writeBytes += int64(written)
	case "read", "stat", "list":
		t.tally.reads++
		t.tally.readBytes += int64(read)
	}
	return err
}

func (c *countingBackend) ReadFile(key string) ([]byte, error) {
	var b []byte
	err := c.observe("read", key, 0, 0, func() (err error) {
		b, err = c.Backend.ReadFile(key)
		return err
	})
	if err == nil {
		c.t.mu.Lock()
		c.t.tally.readBytes += int64(len(b))
		c.t.mu.Unlock()
	}
	return b, err
}

func (c *countingBackend) ReadAt(key string, p []byte, off int64) error {
	return c.observe("read", key, len(p), 0, func() error { return c.Backend.ReadAt(key, p, off) })
}

func (c *countingBackend) WriteFile(key string, data []byte) error {
	return c.observe("write", key, 0, len(data), func() error { return c.Backend.WriteFile(key, data) })
}

func (c *countingBackend) Append(key string, data []byte, sync bool) error {
	op := "append"
	if !sync {
		op = "append_unsynced"
	}
	return c.observe(op, key, 0, len(data), func() error { return c.Backend.Append(key, data, sync) })
}

func (c *countingBackend) Stat(key string) (store.BlobInfo, error) {
	var bi store.BlobInfo
	err := c.observe("stat", key, 0, 0, func() (err error) {
		bi, err = c.Backend.Stat(key)
		return err
	})
	return bi, err
}

func (c *countingBackend) List(dir string) ([]store.Entry, error) {
	var es []store.Entry
	err := c.observe("list", dir, 0, 0, func() (err error) {
		es, err = c.Backend.List(dir)
		return err
	})
	return es, err
}

func (c *countingBackend) Remove(key string) error {
	return c.observe("remove", key, 0, 0, func() error { return c.Backend.Remove(key) })
}

// --- /v1/stats ---------------------------------------------------------

// serviceStats is the part of /v1/stats the traced run reads.
type serviceStats struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Engines struct {
		Gets   int64 `json:"gets"`
		Reused int64 `json:"reused"`
	} `json:"engines"`
	Ingest struct {
		MaxDepth  int64 `json:"max_depth"`
		Rejected  int64 `json:"rejected"`
		Committed int64 `json:"committed"`
		Batches   int64 `json:"batches"`
	} `json:"ingest"`
}

// statsDelta accumulates stats differences over timed phases.
type statsDelta struct {
	hits, misses, gets, reused, rejected, committed, batches, maxDepth int64
}

func fetchStats(ctx context.Context, svc *service) (serviceStats, error) {
	var st serviceStats
	c := &client{svc: svc, rec: &recorder{}}
	body, err := c.call(ctx, "GET", "/v1/stats", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

func (d *statsDelta) add(a, b serviceStats) {
	d.hits += b.Cache.Hits - a.Cache.Hits
	d.misses += b.Cache.Misses - a.Cache.Misses
	d.gets += b.Engines.Gets - a.Engines.Gets
	d.reused += b.Engines.Reused - a.Engines.Reused
	d.rejected += b.Ingest.Rejected - a.Ingest.Rejected
	d.committed += b.Ingest.Committed - a.Ingest.Committed
	d.batches += b.Ingest.Batches - a.Ingest.Batches
	d.maxDepth = max(d.maxDepth, b.Ingest.MaxDepth)
}
