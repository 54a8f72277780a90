package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// fsBackend is the classic directory-tree backend: every key maps to
// the file of the same relative path under root, byte-compatible with
// repositories written before the backend seam existed.
type fsBackend struct {
	root string
}

// NewFSBackend opens (creating if needed) a filesystem backend rooted
// at dir.
func NewFSBackend(dir string) (Backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &fsBackend{root: dir}, nil
}

func (b *fsBackend) Kind() string { return "fs" }

func (b *fsBackend) path(key string) string {
	return filepath.Join(b.root, filepath.FromSlash(key))
}

func (b *fsBackend) ReadFile(key string) ([]byte, error) {
	return os.ReadFile(b.path(key))
}

// WriteFile is atomic: temp file in the destination directory, then
// rename. Readers racing the write see old or new bytes, never a
// prefix — the manifest and compaction paths depend on it.
func (b *fsBackend) WriteFile(key string, data []byte) error {
	path := b.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return replaceFile(path, data, false)
}

// replaceFile atomically replaces the file at path with data: the
// bytes go to a temp file of their own in the same directory
// (optionally fsynced), which is then renamed over path. Every call
// gets a unique temp name, so concurrent writers of one path never
// share a temp file and the last rename wins. Temp names end in
// ".tmp", which List skips.
func replaceFile(path string, data []byte, sync bool) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func (b *fsBackend) Append(key string, data []byte, sync bool) error {
	path := b.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func (b *fsBackend) ReadAt(key string, p []byte, off int64) error {
	f, err := os.Open(b.path(key))
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.ReadAt(p, off)
	return err
}

func (b *fsBackend) Stat(key string) (BlobInfo, error) {
	fi, err := os.Stat(b.path(key))
	if err != nil {
		return BlobInfo{}, err
	}
	return BlobInfo{Size: fi.Size(), ModTime: fi.ModTime()}, nil
}

func (b *fsBackend) List(dir string) ([]Entry, error) {
	entries, err := os.ReadDir(b.path(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			continue // in-flight atomic write, not a blob
		}
		out = append(out, Entry{Name: e.Name(), Dir: e.IsDir()})
	}
	return out, nil
}

func (b *fsBackend) Remove(key string) error {
	return os.Remove(b.path(key))
}

func (b *fsBackend) Close() error { return nil }
