package server

// The service route table. Version 1 lives under /v1 in one coherent
// scheme: every run-scoped resource hangs off its specification
// (/v1/specs/{spec}/diff/{a}/{b} — diff and cohort are spec-scoped
// like cluster/outliers/nearest always were), and every endpoint has
// exactly one route.

import (
	"net/http"
	"sync/atomic"
)

// apiRoute is one row of the route table: the /v1 pattern and its
// handler.
type apiRoute struct {
	Method string
	Path   string // pattern under /v1, e.g. "/specs/{spec}/diff/{a}/{b}"
	Name   string // stable short name: the metrics route label and CSV column value
	Doc    string // one-line description for the generated route list

	handler http.HandlerFunc
}

// routeTable enumerates every endpoint. It is the single source the
// mux registration and the README/package-doc route list draw from —
// a route added here is served and documented or it does not exist.
func (s *Server) routeTable() []apiRoute {
	return []apiRoute{
		{Method: "GET", Path: "/specs", Name: "specs",
			Doc: "list specifications", handler: s.count(&s.reqSpecs, s.handleSpecs)},
		{Method: "GET", Path: "/specs/{spec}/runs", Name: "runs",
			Doc: "list runs of a specification", handler: s.count(&s.reqRuns, s.handleRuns)},
		{Method: "POST", Path: "/specs/{spec}/runs", Name: "import",
			Doc: "import a run (XML body, ?name=, ?async=1)", handler: s.count(&s.reqImport, s.handleIngest)},
		{Method: "POST", Path: "/specs/{spec}/runs/{run}", Name: "import",
			Doc: "import a run (XML body, ?async=1)", handler: s.count(&s.reqImport, s.handleIngest)},
		{Method: "POST", Path: "/specs/{spec}/runs:bulk", Name: "bulk",
			Doc: "bulk-import a cohort (tar or NDJSON, ?async=1)", handler: s.count(&s.reqBulk, s.handleBulkImport)},
		{Method: "GET", Path: "/specs/{spec}/export", Name: "export",
			Doc: "export spec + runs as a tar stream", handler: s.count(&s.reqExport, s.handleExport)},
		{Method: "DELETE", Path: "/specs/{spec}/runs/{run}", Name: "delete",
			Doc: "delete a run", handler: s.count(&s.reqDelete, s.handleDelete)},
		{Method: "GET", Path: "/specs/{spec}/diff/{a}/{b}", Name: "diff",
			Doc: "distance + edit script (?cost=, ?across=)", handler: s.count(&s.reqDiff, s.handleDiff)},
		{Method: "GET", Path: "/specs/{spec}/diff/{a}/{b}/svg", Name: "diff_svg",
			Doc: "side-by-side SVG diff rendering", handler: s.count(&s.reqSVG, s.handleDiffSVG)},
		{Method: "GET", Path: "/specs/{spec}/cohort", Name: "cohort",
			Doc: "distance matrix + dendrogram (?cost=, ?stream=1)", handler: s.count(&s.reqCohort, s.handleCohort)},
		{Method: "GET", Path: "/specs/{a}/evolve/{b}", Name: "evolve",
			Doc: "spec-evolution mapping between versions", handler: s.count(&s.reqEvolve, s.handleEvolve)},
		{Method: "GET", Path: "/specs/{a}/evolve/{b}/svg", Name: "evolve_svg",
			Doc: "spec overlay (deleted red, inserted green)", handler: s.count(&s.reqEvolve, s.handleEvolveSVG)},
		{Method: "GET", Path: "/specs/{spec}/cluster", Name: "cluster",
			Doc: "k-medoids partitioning (?k=, ?seed=, ?cost=)", handler: s.count(&s.reqCluster, s.handleCluster)},
		{Method: "GET", Path: "/specs/{spec}/outliers", Name: "outliers",
			Doc: "knn outlier scores (?k=, ?cost=)", handler: s.count(&s.reqOutliers, s.handleOutliers)},
		{Method: "GET", Path: "/specs/{spec}/nearest", Name: "nearest",
			Doc: "nearest neighbors (?run=, ?k=, ?cost=)", handler: s.count(&s.reqNearest, s.handleNearest)},
		{Method: "GET", Path: "/specs/{spec}/runs/{run}/proof", Name: "proof",
			Doc: "Merkle inclusion proof against the provenance ledger", handler: s.count(&s.reqProof, s.handleProof)},
		{Method: "PATCH", Path: "/specs/{spec}/runs/{run}/events", Name: "live_events",
			Doc: "append live node-status events (?cost=, ?complete=1)", handler: s.count(&s.reqLive, s.handleLiveEvents)},
		{Method: "GET", Path: "/specs/{spec}/watch", Name: "watch",
			Doc: "stream live-run drift updates as NDJSON", handler: s.count(&s.reqWatch, s.handleWatch)},
		{Method: "GET", Path: "/tickets/{id}", Name: "tickets",
			Doc: "async ingest ticket status", handler: s.count(&s.reqTickets, s.handleTicket)},
		{Method: "GET", Path: "/metrics", Name: "metrics",
			Doc: "Prometheus text-format metrics", handler: s.count(&s.reqMetrics, s.handleMetrics)},
		{Method: "GET", Path: "/stats", Name: "stats",
			Doc: "service counters", handler: s.count(&s.reqStats, s.handleStats)},
		{Method: "GET", Path: "/healthz", Name: "healthz",
			Doc: "liveness probe", handler: s.handleHealthz},
	}
}

// registerRoutes mounts the table under /v1. Every handler runs
// inside the timing shell, so /metrics sees the whole traffic under
// the route's stable name.
func (s *Server) registerRoutes() {
	for _, rt := range s.routeTable() {
		s.mux.HandleFunc(rt.Method+" /v1"+rt.Path, s.instrument(rt.Name, rt.handler))
	}
}

func (s *Server) count(c *atomic.Int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.Add(1)
		h(w, r)
	}
}
