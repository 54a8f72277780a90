package store

import (
	"encoding/json"
	"os"
	"testing"
)

// TestWriteStoreBenchArtifact materializes the cold-start benchmark
// as a JSON file (path in $BENCH_STORE_JSON) — the committed
// BENCH_store.json baseline and the CI benchmark artifact both come
// from this. It is skipped in normal test runs.
func TestWriteStoreBenchArtifact(t *testing.T) {
	path := os.Getenv("BENCH_STORE_JSON")
	if path == "" {
		t.Skip("BENCH_STORE_JSON not set")
	}
	type entry struct {
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		N           int     `json:"n"`
		MsPerOp     float64 `json:"ms_per_op"`
	}
	r := testing.Benchmark(BenchmarkColdPreloadSnapshot)
	snap := entry{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
		MsPerOp:     float64(r.NsPerOp()) / 1e6,
	}
	data, err := json.MarshalIndent(map[string]entry{"cold_preload_snapshot_32": snap}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: snapshot %.3fms per 32-run cold preload", path, snap.MsPerOp)
}
