package main

// The workloads' set-up, timed phase, restarts and answer checks.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// Fixed counts of the untimed parts of a run.
const (
	setupRepeats   = 5  // set-ups per run; setup_s is their median
	warmupDiffs    = 32 // diff-cold: untimed diffs after set-up
	restartsPerRun = 40 // reopen repeats
	checkEvery     = 16 // cold diff answers checked in-process: every n-th op
)

// restartGap spaces the reopens over several seconds, so that
// restart_ms does not hang on the host's speed during one burst.
const restartGap = 100 * time.Millisecond

// bench is one benchmark run: its configuration, the scratch directory
// holding its repositories, and what it measured.
type bench struct {
	cfg  config
	work string // scratch directory, removed when the run ends
	tr   *tracer

	w        *workload
	orc      *oracle
	rec      *recorder
	restarts []float64 // ms
	ref      *refSampler
	// The windows the set-ups, the timed phase and the restarts ran
	// in, to pick the reference samples taken alongside each.
	setupFrom, setupTo     time.Time
	phaseFrom, phaseTo     time.Time
	restartFrom, restartTo time.Time
	bpub                   []float64 // repository bytes per acknowledged user byte
	setups                 []float64 // s
	phaseSec               float64   // time the measured requests ran
	extra                  int       // requests made outside the timed phase (restart probes, checks)
	wrong                  []string  // answers that failed a check

	// restartPairs are the runs each restart's first diff compared.
	restartPairs [][2]string
}

func (b *bench) serverOptions() server.Options {
	opts := server.Options{CacheSize: server.DefaultCacheSize}
	if b.tr != nil {
		opts.OnRequestTiming = b.tr.onRequest
	}
	return opts
}

func (b *bench) wrap() func(store.Backend) store.Backend {
	if b.tr == nil {
		return nil
	}
	return b.tr.wrapBackend
}

// use makes w the workload of the run, with a fresh oracle for it.
func (b *bench) use(w *workload) error {
	o, err := newOracle(w)
	if err != nil {
		return err
	}
	b.w, b.orc = w, o
	return nil
}

func (b *bench) fail(format string, args ...any) {
	b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
}

// newRepo creates an fs repository holding the workload's
// specification and the given runs, and returns its directory.
func (b *bench) newRepo(name string, runs []doc) (string, error) {
	dir := filepath.Join(b.work, name)
	st, err := store.Open(dir)
	if err != nil {
		return "", err
	}
	defer st.Close()
	sp, err := decodeSpec(b.w.SpecXML)
	if err != nil {
		return "", err
	}
	if err := st.SaveSpec(b.w.SpecName, sp); err != nil {
		return "", err
	}
	if len(runs) > 0 {
		data := make([]store.RunData, len(runs))
		for i, d := range runs {
			data[i] = store.RunData{Name: d.Name, XML: d.XML}
		}
		if _, err := st.ImportRuns(b.w.SpecName, data, 0); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// run executes the configured workload end to end.
func (b *bench) run(ctx context.Context) error {
	b.ref = startRef()
	defer b.ref.stop()
	switch b.cfg.workload {
	case wlDiffCold:
		return b.runDiffCold(ctx)
	case wlMixedLive:
		return b.runMixedLive(ctx)
	}
	return fmt.Errorf("unknown workload %q", b.cfg.workload)
}

// repeatSetup runs setup setupRepeats times, timing each, and keeps
// only the last instance: every earlier one is closed and its
// repository removed. setup may return no service.
func (b *bench) repeatSetup(ctx context.Context, setup func(i int) (*service, error)) (*service, error) {
	var svc *service
	repeats := setupRepeats
	if b.tr != nil {
		repeats = 1 // a traced run reports no setup_s
	}
	b.setupFrom = time.Now()
	defer func() { b.setupTo = time.Now() }()
	for i := 0; i < repeats; i++ {
		if svc != nil {
			if err := errors.Join(svc.Close(), os.RemoveAll(svc.Dir)); err != nil {
				return nil, err
			}
			svc = nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := setup(i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		svc = s
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
	return svc, nil
}

// timed runs fn under a context bounded by the run length plus grace,
// and adds its wall time to the measured phase. A traced run also
// reads /v1/stats before and after.
func (b *bench) timed(ctx context.Context, svc *service, grace time.Duration, fn func(ctx context.Context)) error {
	var before serviceStats
	if b.tr != nil {
		var err error
		if before, err = fetchStats(ctx, svc); err != nil {
			return err
		}
	}
	pctx, cancel := context.WithTimeout(ctx, time.Duration(b.cfg.seconds)*time.Second+grace)
	defer cancel()
	t0 := time.Now()
	fn(pctx)
	b.phaseFrom, b.phaseTo = t0, time.Now()
	b.phaseSec += time.Since(t0).Seconds()
	if b.tr != nil {
		after, err := fetchStats(ctx, svc)
		if err != nil {
			return err
		}
		b.tr.stats.add(before, after)
	}
	return nil
}

func (b *bench) runDiffCold(ctx context.Context) error {
	svc, err := b.repeatSetup(ctx, func(i int) (*service, error) {
		w, err := generate(b.cfg.workload, b.cfg.seed, b.cfg.seconds)
		if err != nil {
			return nil, err
		}
		if err := b.use(w); err != nil {
			return nil, err
		}
		dir, err := b.newRepo(fmt.Sprintf("setup%d", i), b.w.Initial)
		if err != nil {
			return nil, err
		}
		svc, err := openService(dir, b.wrap(), b.serverOptions(), b.cfg.conns)
		if err != nil {
			return nil, err
		}
		warm := &client{svc: svc, w: w, rec: &recorder{}}
		warm.closedLoop(ctx, b.cfg.conns, w.Ops, warmupDiffs)
		if n := failures(warm.rec.outcomes); n > 0 {
			svc.Close()
			return nil, fmt.Errorf("%d warm-up requests failed", n)
		}
		return svc, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if svc != nil {
			svc.Close()
		}
	}()
	// The timed phase continues the pair walk where warm-up stopped.
	seq := append(slices.Clone(b.w.Ops[warmupDiffs:]), b.w.Ops[:warmupDiffs]...)
	c := &client{svc: svc, w: b.w, rec: b.rec}
	if err := b.timed(ctx, svc, 0, func(ctx context.Context) {
		c.closedLoop(ctx, b.cfg.conns, seq, 0)
	}); err != nil {
		return err
	}
	b.checkDiffs(b.rec.outcomes, false)
	dir := svc.Dir
	err = svc.Close()
	svc = nil
	if err != nil {
		return err
	}
	if err := b.measureRestarts(ctx, dir, restartsPerRun, b.w.Stable); err != nil {
		return err
	}
	return b.measureBytes(dir, docBytes(b.w.Initial))
}

func (b *bench) runMixedLive(ctx context.Context) error {
	svc, err := b.repeatSetup(ctx, func(i int) (*service, error) {
		w, err := generate(b.cfg.workload, b.cfg.seed, b.cfg.seconds)
		if err != nil {
			return nil, err
		}
		if err := b.use(w); err != nil {
			return nil, err
		}
		dir, err := b.newRepo(fmt.Sprintf("setup%d", i), b.w.Initial)
		if err != nil {
			return nil, err
		}
		svc, err := openService(dir, b.wrap(), b.serverOptions(), b.cfg.conns)
		if err != nil {
			return nil, err
		}
		// Warm every read path without writing: the hot pairs fill the
		// cache, the analytics build the metric index.
		warm := &client{svc: svc, w: w, rec: &recorder{}}
		var seen = map[[2]string]bool{}
		for _, o := range w.Ops {
			switch o.Kind {
			case opHotDiff:
				if seen[[2]string{o.A, o.B}] {
					continue
				}
				seen[[2]string{o.A, o.B}] = true
			case opNearest, opOutliers, opCluster:
				if seen[[2]string{o.Kind.String()}] {
					continue
				}
				seen[[2]string{o.Kind.String()}] = true
			default:
				continue
			}
			warm.exec(ctx, o, time.Now())
		}
		if n := failures(warm.rec.outcomes); n > 0 {
			svc.Close()
			return nil, fmt.Errorf("%d warm-up requests failed", n)
		}
		return svc, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if svc != nil {
			svc.Close()
		}
	}()
	c := &client{svc: svc, w: b.w, rec: b.rec}
	if err := b.timed(ctx, svc, 30*time.Second, func(ctx context.Context) {
		c.openLoop(ctx, b.cfg.conns, b.w.Ops)
	}); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b.checkDiffs(b.rec.outcomes, true)
	b.checkAnalytics(b.rec.outcomes)
	if err := b.checkLive(svc); err != nil {
		return err
	}
	if err := b.checkExactAnalytics(ctx, svc); err != nil {
		return err
	}
	dir := svc.Dir
	err = svc.Close()
	svc = nil
	if err != nil {
		return err
	}
	if err := b.measureRestarts(ctx, dir, restartsPerRun, b.w.Stable); err != nil {
		return err
	}
	// The repository must hold every acknowledged import intact, and
	// the ledger must attest exactly the runs the requests left in it.
	var acked []doc
	stored := len(b.w.Initial)
	for _, o := range b.rec.outcomes {
		switch {
		case o.Err != nil:
		case o.Class == "ingest":
			acked = append(acked, b.w.Pool[o.Op.Doc])
			stored++
		case o.Class == "delete":
			stored--
		case o.Completed:
			stored++
		}
	}
	if err := b.checkDurable(dir, acked, stored); err != nil {
		return err
	}
	return b.measureBytes(dir, docBytes(b.w.Initial)+docBytes(b.w.Pool))
}

// measureRestarts reopens the repository n times: open + PreloadAll +
// server start + the first diff over HTTP, checked against an
// in-process diff. Each sample is the time to that correct answer.
// Restart i diffs runs i and i+1 of runs, so the median spans many
// pairs rather than hanging on the cost of one.
func (b *bench) measureRestarts(ctx context.Context, dir string, n int, runs []string) error {
	b.restartFrom = time.Now()
	defer func() { b.restartTo = time.Now() }()
	for i := 0; i < n; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(restartGap):
			}
		}
		a, bName := runs[i%len(runs)], runs[(i+1)%len(runs)]
		want, err := b.expectedDistance(a, bName)
		if err != nil {
			return err
		}
		t0 := time.Now()
		svc, err := openService(dir, b.wrap(), b.serverOptions(), b.cfg.conns)
		if err != nil {
			return err
		}
		rec := &recorder{}
		c := &client{svc: svc, w: b.w, rec: rec}
		answered := c.exec(ctx, op{Kind: opDiff, A: a, B: bName}, t0)
		ms := msSince(t0)
		var err2 error
		if answered && b.tr != nil {
			// A fresh service's counters start at zero.
			var after serviceStats
			if after, err2 = fetchStats(ctx, svc); err2 == nil {
				b.tr.stats.add(serviceStats{}, after)
			}
		}
		if err := errors.Join(err2, svc.Close()); err != nil {
			return err
		}
		if !answered {
			return ctx.Err()
		}
		b.restartPairs = append(b.restartPairs, [2]string{a, bName})
		b.extra++
		o := rec.outcomes[0]
		switch {
		case o.Err != nil:
			b.fail("restart %d: first diff failed: %v", i, o.Err)
		case !sameDistance(o.Distance, want):
			b.fail("restart %d: first diff %s/%s = %g, want %g", i, a, bName, o.Distance, want)
		default:
			b.restarts = append(b.restarts, ms)
		}
	}
	return nil
}

func (b *bench) measureBytes(dir string, user int64) error {
	n, err := repoBytes(dir)
	if err != nil {
		return err
	}
	b.bpub = append(b.bpub, float64(n)/float64(user))
	return nil
}

// failures counts outcomes that failed or were refused.
func failures(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.Err != nil {
			n++
		}
	}
	return n
}
