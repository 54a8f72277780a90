package conformance_test

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/store/conformance"
)

func TestFSBackend(t *testing.T) {
	dir := t.TempDir()
	conformance.RunConformance(t, func() store.Backend {
		be, err := store.NewFSBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		return be
	})
	noTempFiles(t, dir)
}

// noTempFiles fails if an atomic write left a temp file under dir;
// the backends' List hides them, so the suite cannot see them itself.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			t.Errorf("temp file left behind: %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBackend(t *testing.T) {
	be := store.NewMemoryBackend()
	conformance.RunConformance(t, func() store.Backend { return be })
}

func TestObjectBackend(t *testing.T) {
	dir := t.TempDir()
	conformance.RunConformance(t, func() store.Backend {
		be, err := store.NewObjectBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		return be
	})
	noTempFiles(t, dir)
}

// The sharded fan-out must satisfy the same contract as its shards —
// run here over two persistent memory shards.
func TestShardedBackend(t *testing.T) {
	shards := []store.Backend{store.NewMemoryBackend(), store.NewMemoryBackend()}
	conformance.RunConformance(t, func() store.Backend {
		be, err := store.NewShardedBackend(shards...)
		if err != nil {
			t.Fatal(err)
		}
		return be
	})
}
