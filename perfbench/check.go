package main

// Answer checks. Every check recomputes the expected answer in-process
// from the generated documents, never from the service's own state,
// and each mismatch counts against error_rate.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/naive"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

func decodeSpec(xml []byte) (*spec.Spec, error) {
	return wfxml.DecodeSpec(bytes.NewReader(xml))
}

func sameDistance(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// oracle computes expected answers from the generated documents,
// parsing each against one privately decoded specification.
type oracle struct {
	sp    *spec.Spec
	docs  map[string][]byte
	runs  map[string]*wfrun.Run
	dists map[[2]string]float64
}

func newOracle(w *workload) (*oracle, error) {
	sp, err := decodeSpec(w.SpecXML)
	if err != nil {
		return nil, err
	}
	o := &oracle{sp: sp, docs: map[string][]byte{}, runs: map[string]*wfrun.Run{}, dists: map[[2]string]float64{}}
	for _, set := range [][]doc{w.Initial, w.Pool} {
		for _, d := range set {
			o.docs[d.Name] = d.XML
		}
	}
	for _, lr := range w.Live {
		o.docs[lr.Source.Name] = lr.Source.XML
	}
	return o, nil
}

func (o *oracle) run(name string) (*wfrun.Run, error) {
	if r, ok := o.runs[name]; ok {
		return r, nil
	}
	x, ok := o.docs[name]
	if !ok {
		return nil, fmt.Errorf("no generated document %q", name)
	}
	r, err := wfxml.DecodeRun(bytes.NewReader(x), o.sp)
	if err != nil {
		return nil, err
	}
	o.runs[name] = r
	return r, nil
}

// distance is δ(a, b) under the unit cost model from a fresh engine;
// withNaive also demands agreement with the reference implementation.
func (o *oracle) distance(a, b string, withNaive bool) (float64, error) {
	key := [2]string{a, b}
	if d, ok := o.dists[key]; ok {
		return d, nil
	}
	ra, err := o.run(a)
	if err != nil {
		return 0, err
	}
	rb, err := o.run(b)
	if err != nil {
		return 0, err
	}
	d, err := core.Distance(ra, rb, cost.Unit{})
	if err != nil {
		return 0, err
	}
	if withNaive {
		nd, err := naive.Distance(ra, rb, cost.Unit{})
		if err != nil {
			return 0, err
		}
		if !sameDistance(nd, d) {
			return 0, fmt.Errorf("engine distance %g of %s/%s disagrees with the reference %g", d, a, b, nd)
		}
	}
	o.dists[key] = d
	return d, nil
}

func (b *bench) expectedDistance(a, bName string) (float64, error) {
	return b.orc.distance(a, bName, false)
}

// checkDiffs compares sampled diff answers — every hot pair answer
// and every checkEvery-th cold one — with an in-process diff, and the
// edit script's total cost with the distance. PA-sized pairs are also
// checked against the reference implementation.
func (b *bench) checkDiffs(outs []outcome, paSized bool) {
	o := b.orc
	for _, out := range outs {
		if out.Class != "diff" || out.Err != nil {
			continue
		}
		if out.Op.Kind != opHotDiff && out.Op.ID%checkEvery != 0 {
			continue
		}
		want, err := o.distance(out.Op.A, out.Op.B, paSized)
		switch {
		case err != nil:
			b.fail("diff %s/%s: %v", out.Op.A, out.Op.B, err)
		case !sameDistance(out.Distance, want):
			b.fail("diff %s/%s = %g, want %g", out.Op.A, out.Op.B, out.Distance, want)
		case !sameDistance(out.ScriptCost, want):
			b.fail("diff %s/%s: edit script costs %g, distance %g", out.Op.A, out.Op.B, out.ScriptCost, want)
		}
	}
}

// checkAnalytics recomputes the distance of every neighbor returned
// and checks the shape of the outliers and cluster answers: the whole
// cohort scored (its size is constant but for the one import that may
// be in flight), k = 3 clusters.
func (b *bench) checkAnalytics(outs []outcome) {
	o := b.orc
	n := len(b.w.Initial)
	for _, out := range outs {
		if out.Err != nil {
			continue
		}
		switch {
		case out.Op.Kind == opOutliers && (out.Scored < n-1 || out.Scored > n+1):
			b.fail("outliers scored %d runs of a %d-run cohort", out.Scored, n)
		case out.Op.Kind == opCluster && out.Scored != 3:
			b.fail("cluster formed %d clusters, want 3", out.Scored)
		}
		if out.Op.Kind != opNearest {
			continue
		}
		if len(out.Neighbors) != 5 {
			b.fail("nearest %s: %d neighbors, want 5", out.Op.A, len(out.Neighbors))
			continue
		}
		for _, n := range out.Neighbors {
			want, err := o.distance(out.Op.A, n.Run, false)
			if err != nil {
				b.fail("nearest %s: %v", out.Op.A, err)
			} else if !sameDistance(n.Distance, want) {
				b.fail("nearest %s: neighbor %s at %g, want %g", out.Op.A, n.Run, n.Distance, want)
			}
		}
	}
}

// checkLive requires every completed live run to be stored at edit
// distance 0 from the run its events were taken from.
func (b *bench) checkLive(svc *service) error {
	sp, err := svc.Store.LoadSpec(b.w.SpecName)
	if err != nil {
		return err
	}
	for _, out := range b.rec.outcomes {
		if out.Op.Kind != opLive || out.Class != "live" || out.Err != nil {
			continue
		}
		lr := b.w.Live[out.Op.Doc]
		if out.Op.Step != len(lr.Batches)-1 {
			continue
		}
		if !out.Completed {
			b.fail("live run %s: final batch did not complete it", lr.Source.Name)
			continue
		}
		stored, err := svc.Store.LoadRun(b.w.SpecName, lr.Source.Name)
		if err != nil {
			b.fail("live run %s: %v", lr.Source.Name, err)
			continue
		}
		src, err := wfxml.DecodeRun(bytes.NewReader(lr.Source.XML), sp)
		if err != nil {
			return err
		}
		d, err := core.Distance(stored, src, cost.Unit{})
		if err != nil || d != 0 {
			b.fail("live run %s: distance %g from its source (err %v)", lr.Source.Name, d, err)
		}
	}
	return nil
}

// checkExactAnalytics asks the quiesced service for indexed outliers
// and nearest answers and for the same with ?exact=1 (the dense
// matrix), which must agree up to the order of equal scores: the
// index breaks ties by cohort insertion order, the dense matrix by
// run name.
func (b *bench) checkExactAnalytics(ctx context.Context, svc *service) error {
	c := &client{svc: svc, w: b.w, rec: &recorder{}}
	sp := "/v1/specs/" + b.w.SpecName
	queries := []struct {
		path    string
		nearest bool
	}{{"/outliers?k=3", false}, {"/nearest?k=5&run=" + b.w.Stable[0], true}}
	for _, q := range queries {
		var got [2]string
		for i, suffix := range []string{"", "&exact=1"} {
			body, err := c.call(ctx, "GET", sp+q.path+suffix, nil, http.StatusOK)
			b.extra++
			if err != nil {
				b.fail("%s%s: %v", q.path, suffix, err)
				break
			}
			var p struct {
				Outliers  []outlierScore `json:"outliers"`
				Neighbors []neighbor     `json:"-"`
				Indexed   bool           `json:"indexed"`
			}
			var n struct {
				Neighbors []neighbor `json:"neighbors"`
			}
			err = json.Unmarshal(body, &p)
			if err == nil && q.nearest {
				err = json.Unmarshal(body, &n)
				p.Neighbors = n.Neighbors
			}
			if err != nil {
				return err
			}
			if i == 0 && !p.Indexed {
				b.fail("%s: cohort is not indexed", q.path)
			}
			got[i] = canonical(p.Outliers, p.Neighbors)
		}
		if got[0] != got[1] {
			b.fail("%s: indexed answer differs from ?exact=1:\n  %s\n  %s", q.path, got[0], got[1])
		}
	}
	return nil
}

// checkDurable reopens the repository and requires every acknowledged
// document to be stored byte for byte, under a ledger that verifies
// and attests the given number of runs.
func (b *bench) checkDurable(dir string, acked []doc, runs int) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	for _, d := range acked {
		got, err := st.Backend().ReadFile(path.Join(b.w.SpecName, "runs", d.Name+".xml"))
		if err != nil || !bytes.Equal(got, d.XML) {
			b.fail("acknowledged run %s not stored intact (err %v)", d.Name, err)
		}
	}
	rep, err := st.VerifyLedger(b.w.SpecName)
	if err != nil {
		return err
	}
	for _, is := range rep.Issues {
		b.fail("ledger: %s", is)
	}
	if rep.Runs != runs {
		b.fail("ledger attests %d runs, the requests left %d", rep.Runs, runs)
	}
	return nil
}

// canonical renders analytics answers with ties put in run-name
// order: outliers sorted by score, then name; nearest neighbors as
// their sorted distances plus the names of those strictly closer than
// the k-th, since which of several runs tied at the k-th distance is
// returned is a tie-break, not an answer.
func canonical(outs []outlierScore, nn []neighbor) string {
	outs = slices.Clone(outs)
	slices.SortFunc(outs, func(a, b outlierScore) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.Run, b.Run)
	})
	var sb strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&sb, "%s=%v ", o.Run, o.Score)
	}
	if len(nn) > 0 {
		kth := nn[len(nn)-1].Distance
		var closer []string
		for _, n := range nn {
			fmt.Fprintf(&sb, "%v ", n.Distance)
			if n.Distance < kth {
				closer = append(closer, n.Run)
			}
		}
		slices.Sort(closer)
		fmt.Fprintf(&sb, "%v", closer)
	}
	return sb.String()
}
