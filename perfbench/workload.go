package main

// Seeded workload generation. Everything the server sees — the
// specification, every run document, the order of operations and, for
// the open loop, each operation's due time — is a pure function of the
// workload name, the seed and the run length. Nothing here reads a
// clock or global state, so the same arguments give byte-identical
// documents and op sequences (see TestWorkloadDeterminism).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// Workload names, as passed to --workload.
const (
	wlDiffCold  = "diff-cold"
	wlMixedLive = "mixed-live"
)

var workloadNames = []string{wlDiffCold, wlMixedLive}

// Sizing. The comments give the reason for each number; README.md has
// the measurements behind them.
const (
	// diff-cold: Table I workflow MB, whose ~300-edge runs sit in the
	// Fig. 11 range and make the W_TG DP the dominant cost. 48 runs give
	// 1128 distinct pairs, more than twice the 512-entry diff LRU, so a
	// pair recurs only after every other pair was requested.
	diffColdSpec  = "MB"
	diffColdRuns  = 48
	diffColdEdges = 300

	// mixed-live: the PA cohort stays at a constant size above
	// analysis.DefaultIndexThreshold (256), so analytics answer from the
	// metric index while every write slides the cohort window.
	mixedCohort    = 300
	mixedHotPairs  = 8
	mixedLiveSteps = 3
	mixedLiveGap   = 100 * time.Millisecond
)

// mixedRates are the open loop's offered rates per second, per class.
// They sum to about 60 requests/s, a small fraction of what the box
// serves (README.md), so the loop measures latency, not saturation.
var mixedRates = []struct {
	kind opKind
	rate float64
	poll bool // sent periodically by a dashboard, not by independent users
}{
	{opHotDiff, 40, false},
	{opDiff, 10, false},
	{opIngest, 4, false},
	{opNearest, 3, false},
	{opLive, 1, false}, // one live run per second, mixedLiveSteps PATCHes each
	{opCluster, 0.5, true},
	{opOutliers, 1.0 / 6, true},
}

// pollPhase places each dashboard poll in its period. With cluster
// every 2 s at 0.1 s and outliers every 6 s at 1 s, the two never
// overlap while an outliers answer takes under a second: how the polls
// overlap would otherwise decide the tail.
var pollPhase = map[opKind]time.Duration{
	opCluster:  100 * time.Millisecond,
	opOutliers: time.Second,
}

type opKind uint8

const (
	opDiff     opKind = iota // GET diff of a pair the cache does not hold
	opHotDiff                // GET diff of a repeated pair
	opIngest                 // sync POST of a run document
	opLive                   // PATCH of one live-run event batch
	opNearest                // GET nearest
	opOutliers               // GET outliers
	opCluster                // GET cluster
)

var opKindNames = [...]string{"diff", "hot_diff", "ingest", "live", "nearest", "outliers", "cluster"}

func (k opKind) String() string { return opKindNames[k] }

// dashboard reports whether mixed-live's dashboard sends k, rather than
// an interactive user.
func (k opKind) dashboard() bool { return k == opCluster || k == opOutliers }

// doc is one run document: its name in the repository and its XML.
type doc struct {
	Name string
	XML  []byte
}

// op is one request of the workload's op sequence.
type op struct {
	ID   int
	Kind opKind
	Due  time.Duration // open loop: offset from the start of the phase
	A, B string        // diff pair; A is the query run of nearest
	Doc  int           // ingest: index into Pool; live: index into Live
	Step int           // live: batch index, the last one completes the run
	Del  string        // mixed-live: run deleted after this op, keeping the cohort size
}

// liveRun is one run streamed as events: the document it replays and
// its events split into batches.
type liveRun struct {
	Source  doc
	Batches [][]wfrun.Event
}

// workload is the generated input of one benchmark run.
type workload struct {
	Name     string
	SpecName string
	Spec     *spec.Spec
	SpecXML  []byte
	Initial  []doc // imported during set-up
	Pool     []doc // posted during the timed phase
	Live     []liveRun
	Ops      []op
	// Stable lists the initial runs no op deletes: diffs and nearest
	// queries draw from it, so every request names a run that exists.
	Stable []string
}

// generate builds a workload from its name and seed; seconds sizes the
// open loop's schedule.
func generate(name string, seed int64, seconds int) (*workload, error) {
	switch name {
	case wlDiffCold:
		return genDiffCold(seed)
	case wlMixedLive:
		return genMixedLive(seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func newWorkload(name, catalogName, specName string) (*workload, error) {
	sp, err := gen.Catalog(catalogName)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeSpec(&buf, sp, specName); err != nil {
		return nil, err
	}
	return &workload{Name: name, SpecName: specName, Spec: sp, SpecXML: buf.Bytes()}, nil
}

func encodeRun(r *wfrun.Run, name string) (doc, error) {
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r, name); err != nil {
		return doc{}, err
	}
	return doc{Name: name, XML: buf.Bytes()}, nil
}

// randomDocs generates n PA-style documents named prefix%03d.
func randomDocs(sp *spec.Spec, rng *rand.Rand, prefix string, n int) ([]doc, error) {
	out := make([]doc, n)
	for i := range out {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			return nil, err
		}
		if out[i], err = encodeRun(r, fmt.Sprintf("%s%03d", prefix, i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func genDiffCold(seed int64) (*workload, error) {
	w, err := newWorkload(wlDiffCold, diffColdSpec, "mb")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < diffColdRuns; i++ {
		r, err := gen.RunWithTargetEdges(w.Spec, diffColdEdges, 0.1, gen.DefaultRunParams(), rng)
		if err != nil {
			return nil, err
		}
		d, err := encodeRun(r, fmt.Sprintf("r%02d", i))
		if err != nil {
			return nil, err
		}
		w.Initial = append(w.Initial, d)
		w.Stable = append(w.Stable, d.Name)
	}
	// One pass over every unordered pair in seeded order, each in a
	// seeded orientation. The closed loop cycles through it.
	for i := 0; i < diffColdRuns; i++ {
		for j := i + 1; j < diffColdRuns; j++ {
			a, b := w.Initial[i].Name, w.Initial[j].Name
			w.Ops = append(w.Ops, op{Kind: opDiff, A: a, B: b})
		}
	}
	rng.Shuffle(len(w.Ops), func(i, j int) { w.Ops[i], w.Ops[j] = w.Ops[j], w.Ops[i] })
	for i := range w.Ops {
		w.Ops[i].ID = i
		if rng.Intn(2) == 1 {
			w.Ops[i].A, w.Ops[i].B = w.Ops[i].B, w.Ops[i].A
		}
	}
	return w, nil
}

func genMixedLive(seed int64, seconds int) (*workload, error) {
	w, err := newWorkload(wlMixedLive, "PA", "pa")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	horizon := time.Duration(seconds) * time.Second

	// Interactive users arrive independently: a fixed count per class
	// (rate x seconds) at uniformly random times, i.e. a Poisson
	// process conditioned on its count, so every seed offers the same
	// load. A dashboard polls cluster and outliers at a fixed period
	// and phase, the same on every seed.
	var ops []op
	for _, c := range mixedRates {
		if c.poll {
			period := time.Duration(float64(time.Second) / c.rate)
			for due := pollPhase[c.kind]; due < horizon; due += period {
				ops = append(ops, op{Kind: c.kind, Due: due})
			}
			continue
		}
		n := int(c.rate*float64(seconds) + 0.5)
		for i := 0; i < n; i++ {
			ops = append(ops, op{Kind: c.kind, Due: time.Duration(rng.Int63n(int64(horizon)))})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })

	// Every import (sync or a completed live run) deletes the oldest
	// initial run, so the cohort size stays constant. Runs past the
	// last deletion are never removed and serve as read targets.
	writes := 0
	for _, o := range ops {
		if o.Kind == opIngest || o.Kind == opLive {
			writes++
		}
	}
	cohort := max(mixedCohort, writes+64)
	if w.Initial, err = randomDocs(w.Spec, rng, "c", cohort); err != nil {
		return nil, err
	}
	for _, d := range w.Initial[writes:] {
		w.Stable = append(w.Stable, d.Name)
	}
	pick := func() string { return w.Stable[rng.Intn(len(w.Stable))] }
	pair := func() (string, string) {
		a := rng.Intn(len(w.Stable))
		b := (a + 1 + rng.Intn(len(w.Stable)-1)) % len(w.Stable)
		return w.Stable[a], w.Stable[b]
	}
	hot := make([][2]string, mixedHotPairs)
	for i := range hot {
		hot[i][0], hot[i][1] = pair()
	}

	deleted := 0
	for _, o := range ops {
		switch o.Kind {
		case opHotDiff:
			h := hot[rng.Intn(len(hot))]
			o.A, o.B = h[0], h[1]
		case opDiff:
			o.A, o.B = pair()
		case opNearest:
			o.A = pick()
		case opIngest:
			r, err := gen.RandomRun(w.Spec, gen.DefaultRunParams(), rng)
			if err != nil {
				return nil, err
			}
			d, err := encodeRun(r, fmt.Sprintf("n%03d", len(w.Pool)))
			if err != nil {
				return nil, err
			}
			o.Doc = len(w.Pool)
			w.Pool = append(w.Pool, d)
			o.Del = w.Initial[deleted].Name
			deleted++
		case opLive:
			r, err := gen.RandomRun(w.Spec, gen.DefaultRunParams(), rng)
			if err != nil {
				return nil, err
			}
			d, err := encodeRun(r, fmt.Sprintf("v%03d", len(w.Live)))
			if err != nil {
				return nil, err
			}
			lr := liveRun{Source: d, Batches: splitEvents(wfrun.Events(r), mixedLiveSteps)}
			o.Doc = len(w.Live)
			w.Live = append(w.Live, lr)
			for s := range lr.Batches {
				lo := o
				lo.Step = s
				lo.Due = o.Due + time.Duration(s)*mixedLiveGap
				if s == len(lr.Batches)-1 {
					lo.Del = w.Initial[deleted].Name
					deleted++
				}
				w.Ops = append(w.Ops, lo)
			}
			continue
		}
		w.Ops = append(w.Ops, o)
	}
	sort.SliceStable(w.Ops, func(i, j int) bool { return w.Ops[i].Due < w.Ops[j].Due })
	for i := range w.Ops {
		w.Ops[i].ID = i
	}
	return w, nil
}

// splitEvents cuts an event stream into n batches of near-equal size.
func splitEvents(evs []wfrun.Event, n int) [][]wfrun.Event {
	n = min(n, len(evs))
	out := make([][]wfrun.Event, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(evs)/n, (i+1)*len(evs)/n
		out = append(out, evs[lo:hi])
	}
	return out
}

// digest hashes everything the server will be sent, in order: the
// determinism test compares it across generations.
func (w *workload) digest() [sha256.Size]byte {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	put([]byte(w.Name + "\x00" + w.SpecName))
	put(w.SpecXML)
	for _, set := range [][]doc{w.Initial, w.Pool} {
		for _, d := range set {
			put([]byte(d.Name))
			put(d.XML)
		}
	}
	for _, lr := range w.Live {
		put(lr.Source.XML)
		b, _ := json.Marshal(lr.Batches) // plain structs: cannot fail
		put(b)
	}
	for _, o := range w.Ops {
		put([]byte(fmt.Sprintf("%d|%d|%d|%s|%s|%d|%d|%s", o.ID, o.Kind, o.Due, o.A, o.B, o.Doc, o.Step, o.Del)))
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// docBytes sums the XML sizes of docs.
func docBytes(docs []doc) int64 {
	var n int64
	for _, d := range docs {
		n += int64(len(d.XML))
	}
	return n
}
