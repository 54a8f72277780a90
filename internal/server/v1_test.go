package server

// The pre-/v1 aliases are gone: every endpoint has exactly one route,
// under /v1. TestV1LegacyParity keeps one case per former alias and
// checks that its URL now answers 404 in the error envelope while its
// /v1 successor serves the request.

import (
	"net/http"
	"testing"
)

func TestV1LegacyParity(t *testing.T) {
	srv, st := seedEvolveServer(t, 3, Options{CacheSize: 16})
	runBody := encodeRun(t, st, 900)
	tarBody, _ := bulkTar(t, st, 2, 901, "pb")

	cases := []struct {
		key    string // Method + " " + former legacy pattern
		method string
		legacy string // concrete former legacy URL
		v1     string // concrete /v1 URL
		body   []byte
	}{
		{key: "GET /specs", method: "GET", legacy: "/specs", v1: "/v1/specs"},
		{key: "GET /specs/{spec}/runs", method: "GET", legacy: "/specs/pa/runs", v1: "/v1/specs/pa/runs"},
		{key: "POST /specs/{spec}/runs", method: "POST", legacy: "/specs/pa/runs?name=px", v1: "/v1/specs/pa/runs?name=px", body: runBody},
		{key: "POST /specs/{spec}/runs/{run}", method: "POST", legacy: "/specs/pa/runs/py", v1: "/v1/specs/pa/runs/py", body: runBody},
		{key: "POST /specs/{spec}/runs:bulk", method: "POST", legacy: "/specs/pa/runs:bulk", v1: "/v1/specs/pa/runs:bulk", body: tarBody},
		{key: "GET /specs/{spec}/export", method: "GET", legacy: "/specs/pa/export", v1: "/v1/specs/pa/export"},
		{key: "DELETE /specs/{spec}/runs/{run}", method: "DELETE", legacy: "/specs/pa/runs/py", v1: "/v1/specs/pa/runs/py"},
		{key: "GET /diff/{spec}/{a}/{b}", method: "GET", legacy: "/diff/pa/r0/r1", v1: "/v1/specs/pa/diff/r0/r1"},
		{key: "GET /diff/{spec}/{a}/{b}/svg", method: "GET", legacy: "/diff/pa/r0/r1/svg", v1: "/v1/specs/pa/diff/r0/r1/svg"},
		{key: "GET /cohort/{spec}", method: "GET", legacy: "/cohort/pa", v1: "/v1/specs/pa/cohort"},
		{key: "GET /specs/{a}/evolve/{b}", method: "GET", legacy: "/specs/pa/evolve/pa-v2", v1: "/v1/specs/pa/evolve/pa-v2"},
		{key: "GET /specs/{a}/evolve/{b}/svg", method: "GET", legacy: "/specs/pa/evolve/pa-v2/svg", v1: "/v1/specs/pa/evolve/pa-v2/svg"},
		{key: "GET /specs/{spec}/cluster", method: "GET", legacy: "/specs/pa/cluster?k=2&seed=3", v1: "/v1/specs/pa/cluster?k=2&seed=3"},
		{key: "GET /specs/{spec}/outliers", method: "GET", legacy: "/specs/pa/outliers?k=2", v1: "/v1/specs/pa/outliers?k=2"},
		{key: "GET /specs/{spec}/nearest", method: "GET", legacy: "/specs/pa/nearest?run=r0&k=2", v1: "/v1/specs/pa/nearest?run=r0&k=2"},
		{key: "GET /metrics", method: "GET", legacy: "/metrics", v1: "/v1/metrics"},
		{key: "GET /stats", method: "GET", legacy: "/stats", v1: "/v1/stats"},
		{key: "GET /healthz", method: "GET", legacy: "/healthz", v1: "/v1/healthz"},
	}
	for _, c := range cases {
		t.Run(c.key, func(t *testing.T) {
			wantEnvelope(t, do(t, srv, c.method, c.legacy, c.body, nil), http.StatusNotFound, "not_found")
			if rec := do(t, srv, c.method, c.v1, c.body, nil); rec.Code >= 300 {
				t.Fatalf("%s %s = %d %q", c.method, c.v1, rec.Code, truncate(rec.Body.String()))
			}
		})
	}
}

func truncate(s string) string {
	if len(s) > 300 {
		return s[:300] + "…"
	}
	return s
}

// TestTicketRouteIsV1Only: the async ticket endpoint, which never had
// an unversioned alias, is served under /v1 only too.
func TestTicketRouteIsV1Only(t *testing.T) {
	srv, _ := seedServer(t, 0, Options{})
	if rec := do(t, srv, "GET", "/tickets/tdeadbeef", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("legacy /tickets = %d, want 404", rec.Code)
	}
}
