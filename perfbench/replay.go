package main

// The traced run: the in-process replay of the workload's own
// operations against the layers' public functions.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/store"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// --- the traced run ------------------------------------------------------

// traced runs the workload with tracing in alternate windows, replays
// its operations in-process and folds it all into the per-layer
// metrics.
func (b *bench) traced(ctx context.Context, st stamp) (*report, error) {
	b.tr = newTracer()
	if err := b.run(ctx); err != nil {
		return nil, err
	}
	rp := &replay{b: b, t: b.tr, op: map[int][]int{}}
	if err := rp.run(ctx); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := b.report(st)
	rep.Trace = true
	rep.Gated = perLayer
	rp.metrics(rep.Metrics)
	for k, n := range b.tr.byClass {
		rep.Backend = append(rep.Backend, fmt.Sprintf("%-28s %d", k, n))
	}
	sort.Strings(rep.Backend)
	parts, total := ladder(rep.Metrics)
	rep.Ladder = fmt.Sprintf("%s = %.3f ms; the same requests' median latency in traced windows: %.3f ms", parts, total, rp.tracedP50)
	if err := b.writeSpans(); err != nil {
		return nil, err
	}
	return rep, nil
}

func (b *bench) writeSpans() error {
	p := filepath.Join(b.cfg.root, fmt.Sprintf("spans-%s-%d.jsonl", b.cfg.workload, b.cfg.seed))
	f, err := os.Create(p)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range b.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- in-process replay ---------------------------------------------------

// replay drives the layers' public functions with the workload's
// documents and op sequence, one call per span.
type replay struct {
	b  *bench
	t  *tracer
	sp *spec.Spec
	st *store.Store
	// present names the runs the replay's repository holds.
	present map[string]bool
	// op maps an op ID to the indexes of its top-level spans, so a
	// request's layer time can be set against its HTTP latency.
	op map[int][]int

	committed   int   // documents committed in the write section
	userBytes   int64 // their XML bytes
	writeTally  backendTally
	restarts    int
	readTally   backendTally
	fromXML     int
	treeNodes   []float64
	derived     int
	reused      int
	queries     int
	exactDiffs  int64
	prunedPairs int64
	tracedP50   float64 // headline requests matched with a replay
}

// call runs fn in a top-level span of op (-1: no op) and returns the
// span's index.
func (rp *replay) call(name string, op int, fn func()) int {
	i := rp.t.traceCall(name, op, fn)
	if op >= 0 {
		rp.op[op] = append(rp.op[op], i)
	}
	return i
}

func (rp *replay) run(ctx context.Context) error {
	rp.t.mu.Lock()
	rp.t.forced = true
	rp.t.mu.Unlock()
	defer func() {
		rp.t.mu.Lock()
		rp.t.forced = false
		rp.t.mu.Unlock()
	}()
	// The write path replays the documents the workload writes, into a
	// repository holding the rest of its runs.
	written, base := rp.b.w.Pool, rp.b.w.Initial
	if len(written) == 0 {
		written, base = base, nil
	}
	dir, err := rp.b.newRepo("replay", base)
	if err != nil {
		return err
	}
	rp.present = map[string]bool{}
	for _, d := range base {
		rp.present[d.Name] = true
	}
	be, err := store.NewFSBackend(dir)
	if err != nil {
		return err
	}
	rp.st = store.OpenBackend(rp.t.wrapBackend(be))
	defer func() {
		if rp.st != nil {
			rp.st.Close()
		}
	}()
	if rp.sp, err = rp.st.LoadSpec(rp.b.w.SpecName); err != nil {
		return err
	}
	docs, frames, err := rp.write(ctx, written)
	if err != nil {
		return err
	}
	if err := rp.restart(ctx, dir, frames); err != nil {
		return err
	}
	if err := rp.read(ctx); err != nil {
		return err
	}
	if err := rp.live(ctx); err != nil {
		return err
	}
	return rp.analytics(ctx, docs)
}

// writeDocs orders the documents the workload writes: those a
// restart diffs first, so the read replay finds them, then those
// posted in traced windows, so their requests can be set against the
// replay, then the rest. ids holds each document's ingest op ID, or -1
// for a document the set-up imports.
func (rp *replay) writeDocs(written []doc) (docs []doc, ids []int) {
	w := rp.b.w
	id := map[int]int{}
	for _, o := range w.Ops {
		if o.Kind == opIngest {
			id[o.Doc] = o.ID
		}
	}
	traced := map[int]bool{}
	for _, o := range rp.b.rec.outcomes {
		if o.Class == "ingest" && rp.t.active(o.At) {
			traced[o.Op.Doc] = true
		}
	}
	restarted := map[string]bool{}
	for _, p := range rp.b.restartPairs {
		restarted[p[0]], restarted[p[1]] = true, true
	}
	rank := func(i int) int {
		switch {
		case restarted[written[i].Name]:
			return 0
		case traced[i]:
			return 1
		}
		return 2
	}
	order := make([]int, len(written))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rank(order[a]) < rank(order[b]) })
	for _, i := range order[:min(len(order), replayDocs)] {
		docs = append(docs, written[i])
		if v, ok := id[i]; ok && len(w.Pool) > 0 {
			ids = append(ids, v)
		} else {
			ids = append(ids, -1)
		}
	}
	return docs, ids
}

func (rp *replay) write(ctx context.Context, written []doc) ([]doc, [][]byte, error) {
	docs, ids := rp.writeDocs(written)
	frames := make([][]byte, 0, len(docs))
	before := rp.t.snapshot()
	deadline := time.Now().Add(replayBudget)
	for i, d := range docs {
		if ctx.Err() != nil || (i > 0 && time.Now().After(deadline)) {
			docs = docs[:i]
			break
		}
		opID := ids[i]
		var run *wfrun.Run
		var err error
		dec := rp.call("wfxml.decode", opID, func() { run, err = wfxml.DecodeRun(bytes.NewReader(d.XML), rp.sp) })
		if err != nil {
			return nil, nil, err
		}
		rp.t.adopt(dec, "wfrun.derive", opID, func() {
			_, err = wfrun.Derive(rp.sp, run.Graph, run.EdgeRefs())
		})
		if err != nil {
			return nil, nil, err
		}
		var frame []byte
		rp.call("codec.encode", opID, func() { frame, err = codec.EncodeRun(run) })
		if err != nil {
			return nil, nil, err
		}
		rp.call("codec.hash", opID, func() { codec.ContentHash(frame) })
		frames = append(frames, frame)
		rp.call("store.commit", opID, func() {
			_, err = rp.st.ImportParsed(rp.b.w.SpecName, []store.ParsedRun{{Name: d.Name, XML: d.XML, Run: run}})
		})
		if err != nil {
			return nil, nil, err
		}
		rp.committed++
		rp.userBytes += int64(len(d.XML))
		rp.present[d.Name] = true
	}
	after := rp.t.snapshot()
	rp.writeTally = backendTally{ops: after.ops - before.ops, writeBytes: after.writeBytes - before.writeBytes}
	return docs, frames, nil
}

func (rp *replay) restart(ctx context.Context, dir string, frames [][]byte) error {
	err := rp.st.Close()
	rp.st = nil
	if err != nil {
		return err
	}
	for i := 0; i < replayRestarts && ctx.Err() == nil; i++ {
		if rp.st != nil {
			rp.st.Close()
		}
		before := rp.t.snapshot()
		rp.call("store.preload", -1, func() { rp.st, err = rp.reopen(dir) })
		if err != nil {
			return err
		}
		after := rp.t.snapshot()
		rp.restarts++
		rp.readTally.reads += after.reads - before.reads
		rp.readTally.readBytes += after.readBytes - before.readBytes
	}
	if rp.st == nil {
		return ctx.Err()
	}
	sp, err := rp.st.LoadSpec(rp.b.w.SpecName)
	if err != nil {
		return err
	}
	rp.sp = sp
	for _, f := range frames {
		rp.call("codec.decode", -1, func() { _, err = codec.DecodeRun(f, sp) })
		if err != nil {
			return err
		}
	}
	return nil
}

// reopen opens the repository at dir over the tracer's decorator and
// preloads it, counting runs that had to be re-parsed from XML.
func (rp *replay) reopen(dir string) (*store.Store, error) {
	be, err := store.NewFSBackend(dir)
	if err != nil {
		return nil, err
	}
	st := store.OpenBackend(rp.t.wrapBackend(be))
	ps, err := st.PreloadAll()
	for _, p := range ps {
		rp.fromXML += p.FromXML
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// read replays the workload's diffs through LoadRun,
// TreeIndex.Rebuild, Engine.Diff and Result.Script: the cache misses
// of its timed phase sent in traced windows, then each restart's first
// diff, skipping pairs whose runs the replay did not write.
func (rp *replay) read(ctx context.Context) error {
	type pair struct {
		a, b string
		id   int
	}
	var pairs []pair
	for _, o := range rp.b.rec.outcomes {
		if o.Class == "diff" && o.Err == nil && !o.Cached && rp.t.active(o.At) {
			pairs = append(pairs, pair{o.Op.A, o.Op.B, o.Op.ID})
		}
	}
	for _, p := range rp.b.restartPairs {
		if rp.present[p[0]] && rp.present[p[1]] {
			pairs = append(pairs, pair{p[0], p[1], -1})
		}
	}
	pairs = pairs[:min(len(pairs), replayDiffs)]
	eng := core.NewEngine(cost.Unit{})
	var i1, i2 sptree.TreeIndex
	deadline := time.Now().Add(replayBudget)
	for i, p := range pairs {
		if ctx.Err() != nil || (i > 0 && time.Now().After(deadline)) {
			break
		}
		var r1, r2 *wfrun.Run
		var err error
		rp.call("store.load_run", p.id, func() { r1, err = rp.st.LoadRun(rp.b.w.SpecName, p.a) })
		if err != nil {
			return err
		}
		rp.call("store.load_run", p.id, func() { r2, err = rp.st.LoadRun(rp.b.w.SpecName, p.b) })
		if err != nil {
			return err
		}
		var res *core.Result
		d := rp.call("core.diff", p.id, func() { res, err = eng.Diff(r1, r2) })
		if err != nil {
			return err
		}
		rp.t.adopt(d, "sptree.index", p.id, func() {
			i1.Rebuild(r1.Tree)
			i2.Rebuild(r2.Tree)
		})
		rp.treeNodes = append(rp.treeNodes, float64(i1.Len()+i2.Len()))
		rp.call("core.script", p.id, func() { _, _, err = res.Script() })
		if err != nil {
			return err
		}
	}
	return nil
}

// live streams the workload's live runs through Store.AppendLiveEvents
// in their batches, and through a wfrun.Live for its derivation
// counters.
func (rp *replay) live(ctx context.Context) error {
	runs := rp.b.w.Live
	deadline := time.Now().Add(replayBudget)
	for i, lr := range runs[:min(len(runs), replayLive)] {
		if ctx.Err() != nil || (i > 0 && time.Now().After(deadline)) {
			break
		}
		name := "replay-" + lr.Source.Name
		lv := wfrun.NewLive(rp.sp)
		for _, batch := range lr.Batches {
			var err error
			rp.call("wfrun.live_append", -1, func() { _, err = rp.st.AppendLiveEvents(rp.b.w.SpecName, name, batch) })
			if err != nil {
				return err
			}
			for _, ev := range batch {
				if err := lv.Append(ev); err != nil {
					return err
				}
			}
			lv.Sync()
		}
		if _, err := lv.Complete(); err != nil {
			return err
		}
		d, r := lv.Derivations()
		rp.derived += d
		rp.reused += r
		if err := rp.st.AbandonLiveRun(rp.b.w.SpecName, name); err != nil {
			return err
		}
	}
	return nil
}

// analytics slides mixed-live's cohort window over the documents it
// posts (one Add + Remove per step) and asks the indexed nearest,
// outliers and sampled k-medoids questions. Only mixed-live sends
// analytics.
func (rp *replay) analytics(ctx context.Context, docs []doc) error {
	w := rp.b.w
	if w.Name != wlMixedLive {
		return nil
	}
	var members, pending []string
	for _, d := range w.Initial {
		members = append(members, d.Name)
	}
	for _, d := range docs {
		pending = append(pending, d.Name)
	}
	load := func(names []string) ([]*wfrun.Run, error) {
		runs := make([]*wfrun.Run, len(names))
		for i, n := range names {
			r, err := rp.st.LoadRun(w.SpecName, n)
			if err != nil {
				return nil, err
			}
			runs[i] = r
		}
		return runs, nil
	}
	runs, err := load(members)
	if err != nil {
		return err
	}
	hc := analysis.NewHybridCohort(cost.Unit{}, runtime.GOMAXPROCS(0), analysis.HybridOptions{})
	if err := hc.Reset(members, runs); err != nil {
		return err
	}
	deadline := time.Now().Add(replayBudget)
	for step := 0; step < replaySteps && len(pending) > 0 && ctx.Err() == nil; step++ {
		if step > 0 && time.Now().After(deadline) {
			break
		}
		in, out := pending[0], members[0]
		in1, err := load([]string{in})
		if err != nil {
			return err
		}
		rp.call("analysis.window", -1, func() {
			if err = hc.Add(in, in1[0]); err == nil {
				hc.Remove(out)
			}
		})
		if err != nil {
			return err
		}
		members = append(members[1:], in)
		pending = append(pending[1:], out)
		view := hc.View()
		if !view.Indexed() {
			return fmt.Errorf("cohort of %d runs is not indexed", view.Len())
		}
		d0, p0 := hc.DiffCalls(), hc.PrunedPairs()
		rp.call("cluster.nearest", -1, func() { _, err = cluster.IndexedNearest(view.Index, step%view.Len(), 5) })
		if err != nil {
			return err
		}
		rp.queries++
		if step%4 == 0 {
			rp.call("cluster.outliers", -1, func() { _, err = cluster.IndexedOutliers(view.Index, 3) })
			if err != nil {
				return err
			}
			rp.call("cluster.kmedoids", -1, func() {
				_, err = cluster.SampledKMedoids(ctx, view.Index, 3, 1, cluster.SampleOptions{})
			})
			if err != nil {
				return err
			}
			rp.queries += 2
		}
		rp.exactDiffs += hc.DiffCalls() - d0
		rp.prunedPairs += hc.PrunedPairs() - p0
	}
	return nil
}
