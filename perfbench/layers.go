package main

// Folding the trace into the per-layer metrics.

import (
	"fmt"
	"strings"
)

// selfMS is a span's duration less its children's.
func selfMS(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}

// metrics folds the trace into the per-layer metrics.
func (rp *replay) metrics(m map[string]metric) {
	t := rp.t
	self := selfMS(t.spans)
	incl := inclusive(t.spans, self)
	byName := map[string][]float64{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], self[i])
	}
	med := func(name string, xs []float64) {
		if len(xs) == 0 {
			m[name] = metric{Unit: "ms"}
			return
		}
		m[name] = val(median(xs), "ms", len(xs))
	}
	for _, n := range []string{"wfxml.decode", "wfrun.derive", "wfrun.live_append", "sptree.index",
		"core.diff", "core.script", "codec.encode", "codec.hash", "codec.decode",
		"store.commit", "store.preload", "store.load_run", "analysis.window",
		"cluster.nearest", "cluster.outliers", "cluster.kmedoids"} {
		med(n+"_ms", byName[n])
	}
	// The backend calls a commit makes, per commit.
	var commitIO []float64
	for i, sp := range t.spans {
		if sp.Name == "store.commit" {
			commitIO = append(commitIO, incl[i]-self[i])
		}
	}
	med("backend.io_per_commit_ms", commitIO)
	med("backend.append_ms", t.appends)
	med("backend.write_ms", t.writes)
	ratio := func(name string, num, den float64, unit string) {
		if den == 0 {
			m[name] = metric{Unit: unit}
			return
		}
		m[name] = val(num/den, unit, int(den))
	}
	m["core.tree_nodes"] = val(median(rp.treeNodes), "count", len(rp.treeNodes))
	ratio("wfrun.live_reused_ratio", float64(rp.reused), float64(rp.derived+rp.reused), "ratio")
	m["store.preload_from_xml"] = val(float64(rp.fromXML), "count", rp.restarts)
	ratio("backend.ops_per_run", float64(rp.writeTally.ops), float64(rp.committed), "count")
	ratio("backend.bytes_written_per_user_byte", float64(rp.writeTally.writeBytes), float64(rp.userBytes), "ratio")
	ratio("backend.reads_per_restart", float64(rp.readTally.reads), float64(rp.restarts), "count")
	ratio("backend.read_bytes_per_restart", float64(rp.readTally.readBytes), float64(rp.restarts), "bytes")
	ratio("metricindex.pruned_ratio", float64(rp.prunedPairs), float64(rp.prunedPairs+rp.exactDiffs), "ratio")
	ratio("metricindex.exact_diffs_per_query", float64(rp.exactDiffs), float64(rp.queries), "count")

	sd := t.stats
	ratio("server.cache_hit_ratio", float64(sd.hits), float64(sd.hits+sd.misses), "ratio")
	ratio("server.engine_reuse_ratio", float64(sd.reused), float64(sd.gets), "ratio")
	ratio("ingest.avg_batch", float64(sd.committed), float64(sd.batches), "count")
	if len(rp.b.w.Pool) > 0 { // n/a where the workload posts nothing
		m["ingest.max_depth"] = val(float64(sd.maxDepth), "count", 1)
		m["ingest.rejected"] = val(float64(sd.rejected), "count", 1)
	} else {
		m["ingest.max_depth"], m["ingest.rejected"] = metric{Unit: "count"}, metric{Unit: "count"}
	}

	var store, diff []float64
	for _, rt := range t.timings {
		switch rt.Route {
		case "import":
			store = append(store, rt.StoreMS)
		case "live_events":
			diff = append(diff, rt.DiffMS)
		}
	}
	med("server.stage_store_ms", store)
	med("server.stage_diff_ms", diff)

	// server.self_ms: each headline diff's latency less the replayed
	// layer time of the same op, none for a cache hit.
	// trace.overhead_ratio sets the headline requests' median latency in
	// traced windows against untraced ones.
	var srvSelf, srvLatency, traced, untraced []float64
	for _, o := range rp.b.rec.outcomes {
		if !isHeadline(rp.b.w.Name, o) {
			continue
		}
		if !t.active(o.At) {
			untraced = append(untraced, o.MS)
			continue
		}
		traced = append(traced, o.MS)
		if o.Class != "diff" {
			continue
		}
		layers, ok := rp.layerMS(o, incl)
		if ok {
			srvSelf = append(srvSelf, o.MS-layers)
			srvLatency = append(srvLatency, o.MS)
		}
	}
	med("server.self_ms", srvSelf)
	rp.tracedP50 = median(srvLatency)
	if len(traced) > 0 && len(untraced) > 0 {
		m["trace.overhead_ratio"] = val(median(traced)/median(untraced), "ratio", len(traced))
	} else {
		m["trace.overhead_ratio"] = metric{Unit: "ratio"}
	}
	if _, ok := m["loadgen.lag_p99_ms"]; !ok {
		m["loadgen.lag_p99_ms"] = metric{Unit: "ms"}
	}
}

// layerMS is the replayed layer time of one request: the inclusive
// time of every top-level span of its op, 0 for a cache hit; false
// when the op was not replayed.
func (rp *replay) layerMS(o outcome, incl []float64) (float64, bool) {
	if o.Cached {
		return 0, true
	}
	spans := rp.op[o.Op.ID]
	if len(spans) == 0 {
		return 0, false
	}
	total := 0.0
	for _, i := range spans {
		total += incl[i]
	}
	return total, true
}

// inclusive is each span's self time plus every descendant's: its
// whole cost, re-measured children included. A child always comes
// after its parent in the span list.
func inclusive(spans []span, self []float64) []float64 {
	out := append([]float64(nil), self...)
	for j := len(spans) - 1; j >= 0; j-- {
		if p := spans[j].Parent; p >= 0 {
			out[p] += out[j]
		}
	}
	return out
}

// ladder sums the per-layer medians along the headline request path,
// for the report's accounting line.
func ladder(m map[string]metric) (string, float64) {
	v := func(n string) float64 {
		if mt, ok := m[n]; ok && mt.Value != nil {
			return *mt.Value
		}
		return 0
	}
	var parts []string
	names := []string{"store.load_run_ms", "store.load_run_ms", "sptree.index_ms", "core.diff_ms", "core.script_ms", "server.self_ms"}
	total := 0.0
	for _, n := range names {
		total += v(n)
		parts = append(parts, fmt.Sprintf("%s %.3f", n, v(n)))
	}
	return strings.Join(parts, " + "), total
}
