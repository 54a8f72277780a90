package main

// The service under test: server.New over store.OpenBackend on an fs
// repository, served in-process on a loopback listener and reached
// through a client limited to a fixed number of connections. Close
// stops everything it started, in the order a graceful shutdown
// needs: listener and in-flight requests, then the ingest pipeline,
// then the store.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// service is one running server instance over one repository.
type service struct {
	Dir    string
	Store  *store.Store
	Srv    *server.Server
	Base   string
	Client *http.Client

	hs     *http.Server
	tr     *http.Transport
	served chan error
}

// openService opens the repository at dir (wrapping its backend with
// wrap when set), warms it with PreloadAll, and serves it on
// 127.0.0.1:0 to a client of at most conns connections.
func openService(dir string, wrap func(store.Backend) store.Backend, opts server.Options, conns int) (*service, error) {
	be, err := store.NewFSBackend(dir)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		be = wrap(be)
	}
	st := store.OpenBackend(be)
	if _, err := st.PreloadAll(); err != nil {
		st.Close()
		return nil, fmt.Errorf("preload %s: %w", dir, err)
	}
	if err := memoiseLengths(st); err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	srv := server.New(st, opts)
	s := &service{
		Dir:    dir,
		Store:  st,
		Srv:    srv,
		Base:   "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		tr: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	s.Client = &http.Client{Transport: s.tr, Timeout: 60 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// memoiseLengths fills each loaded specification's memo of achievable
// run lengths before any request arrives. spec.AchievableLengths fills
// that memo lazily with no lock, so two concurrent first diffs on a
// specification write the map at once, and the Go runtime aborts the
// process ("concurrent map writes"), about once in thirty runs. A
// call on the root fills the memo for every node; afterwards it is
// only read. This works around a defect of the program, which the
// README lists under Findings.
func memoiseLengths(st *store.Store) error {
	names, err := st.ListSpecs()
	if err != nil {
		return err
	}
	for _, n := range names {
		sp, err := st.LoadSpec(n)
		if err != nil {
			return err
		}
		sp.AchievableLengths(sp.Tree)
	}
	return nil
}

// Close shuts the service down and waits for the serving goroutine.
// In-flight requests get a few seconds to finish before their
// connections are cut.
func (s *service) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	err := <-s.served
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	s.tr.CloseIdleConnections()
	s.Srv.Close()
	return errors.Join(err, s.Store.Close())
}

// repoBytes sums the sizes of the regular files under dir.
func repoBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
