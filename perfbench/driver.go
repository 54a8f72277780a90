package main

// Load generation over real HTTP: a closed loop (each client sends its
// next request when the previous one is answered) and an open loop
// (requests sent at their seeded due times by independent users, timed
// from the due time). Both go through the service's client, which
// holds at most nproc connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one request did: its latency class and time, how it
// failed if it did, and the parts of the answer the checks compare.
type outcome struct {
	Op      op
	At      time.Time // when the request was due (open loop) or sent
	Class   string
	MS      float64
	Err     error
	Refused bool // 429 or 503: the service turned the request away

	Distance   float64    // diff
	ScriptCost float64    // diff: sum of the edit script's op costs
	Cached     bool       // diff
	Completed  bool       // live: the final batch stored the run
	Neighbors  []neighbor // nearest
	Scored     int        // outliers: runs scored; cluster: clusters formed
}

type neighbor struct {
	Run      string  `json:"run"`
	Distance float64 `json:"distance"`
}

type outlierScore struct {
	Run   string  `json:"run"`
	Score float64 `json:"score"`
}

// recorder collects outcomes from concurrent clients.
type recorder struct {
	mu       sync.Mutex
	outcomes []outcome
	lags     []float64 // ms: open loop, how late each request was sent; closed loop, a client's gap between requests
}

func (r *recorder) add(o outcome) {
	r.mu.Lock()
	r.outcomes = append(r.outcomes, o)
	r.mu.Unlock()
}

func (r *recorder) addLag(ms float64) {
	r.mu.Lock()
	r.lags = append(r.lags, ms)
	r.mu.Unlock()
}

// samples returns the latencies of one class's successful requests. A
// request that failed fast must not pull a latency down; failures are
// counted in error_rate and decide correct instead.
func (r *recorder) samples(class string) []float64 {
	var out []float64
	for _, o := range r.outcomes {
		if o.Err == nil && o.Class == class {
			out = append(out, o.MS)
		}
	}
	return out
}

// kind names what an outcome's request was: its op kind, or delete for
// the delete that follows a mixed-live import.
func (o outcome) kind() string {
	if o.Class == "delete" {
		return "delete"
	}
	return o.Op.Kind.String()
}

// client issues the workload's requests against one service.
type client struct {
	svc *service
	w   *workload
	rec *recorder
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// errStatus is an unexpected HTTP status.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// call sends one request and reads the whole answer; the status must
// be want.
func (c *client) call(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.svc.Base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.svc.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return b, &errStatus{code: resp.StatusCode, body: strings.TrimSpace(string(b))}
	}
	return b, nil
}

// finish fills the failure fields of an outcome from a call error.
func finish(o *outcome, err error) {
	if err == nil {
		return
	}
	o.Err = err
	var es *errStatus
	if errors.As(err, &es) && (es.code == http.StatusTooManyRequests || es.code == http.StatusServiceUnavailable) {
		o.Refused = true
	}
}

// exec runs one op, charging its time from start (the due time in the
// open loop, the send time in the closed loop), and records the
// outcome. It returns false when the context ended the request: such
// a request is neither a sample nor a failure.
func (c *client) exec(ctx context.Context, o op, start time.Time) bool {
	sp := "/v1/specs/" + c.w.SpecName
	out := outcome{Op: o, At: start}
	var body []byte
	var err error
	switch o.Kind {
	case opDiff, opHotDiff:
		out.Class = "diff"
		body, err = c.call(ctx, "GET", sp+"/diff/"+o.A+"/"+o.B, nil, http.StatusOK)
		out.MS = msSince(start)
		if err == nil {
			var p struct {
				Distance float64 `json:"distance"`
				Cached   bool    `json:"cached"`
				Ops      []struct {
					Cost float64 `json:"cost"`
				} `json:"ops"`
			}
			err = json.Unmarshal(body, &p)
			out.Distance, out.Cached = p.Distance, p.Cached
			for _, e := range p.Ops {
				out.ScriptCost += e.Cost
			}
		}
	case opIngest:
		out.Class = "ingest"
		d := c.w.Pool[o.Doc]
		_, err = c.call(ctx, "POST", sp+"/runs/"+d.Name, d.XML, http.StatusCreated)
		out.MS = msSince(start)
	case opLive:
		out.Class = "live"
		lr := c.w.Live[o.Doc]
		var evs []byte
		if evs, err = json.Marshal(lr.Batches[o.Step]); err != nil {
			break
		}
		q := ""
		if o.Step == len(lr.Batches)-1 {
			q = "?complete=1"
		}
		body, err = c.call(ctx, "PATCH", sp+"/runs/"+lr.Source.Name+"/events"+q, evs, http.StatusOK)
		out.MS = msSince(start)
		if err == nil {
			var p struct {
				Completed bool `json:"completed"`
			}
			err = json.Unmarshal(body, &p)
			out.Completed = p.Completed
		}
	case opNearest:
		out.Class = "analytics"
		body, err = c.call(ctx, "GET", sp+"/nearest?run="+o.A+"&k=5", nil, http.StatusOK)
		out.MS = msSince(start)
		if err == nil {
			var p struct {
				Neighbors []neighbor `json:"neighbors"`
			}
			err = json.Unmarshal(body, &p)
			out.Neighbors = p.Neighbors
		}
	case opOutliers:
		out.Class = "analytics"
		body, err = c.call(ctx, "GET", sp+"/outliers?k=3", nil, http.StatusOK)
		out.MS = msSince(start)
		if err == nil {
			var p struct {
				Outliers []outlierScore `json:"outliers"`
			}
			err = json.Unmarshal(body, &p)
			out.Scored = len(p.Outliers)
		}
	case opCluster:
		out.Class = "analytics"
		body, err = c.call(ctx, "GET", sp+"/cluster?k=3&seed=1", nil, http.StatusOK)
		out.MS = msSince(start)
		if err == nil {
			var p struct {
				Clusters []struct {
					Runs []string `json:"runs"`
				} `json:"clusters"`
			}
			err = json.Unmarshal(body, &p)
			out.Scored = len(p.Clusters)
		}
	}
	if ctx.Err() != nil {
		return false
	}
	finish(&out, err)
	c.rec.add(out)
	if o.Del != "" {
		t0 := time.Now()
		del := outcome{Op: o, At: t0, Class: "delete"}
		_, err := c.call(ctx, "DELETE", sp+"/runs/"+o.Del, nil, http.StatusOK)
		del.MS = msSince(t0)
		if ctx.Err() != nil {
			return false
		}
		finish(&del, err)
		c.rec.add(del)
	}
	return true
}

// closedLoop runs clients that each take the next op of seq (cycling)
// and send it as soon as their previous request was answered, until
// ctx ends or limit ops were sent (limit <= 0: no limit). Op IDs are
// the global issue index. The generator's lag is each client's gap
// between an answer and its next request.
func (c *client) closedLoop(ctx context.Context, clients int, seq []op, limit int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Time
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if limit > 0 && n >= limit {
					return
				}
				o := seq[n%len(seq)]
				o.ID = n
				now := time.Now()
				if !last.IsZero() {
					c.rec.addLag(float64(now.Sub(last).Nanoseconds()) / 1e6)
				}
				if !c.exec(ctx, o, now) {
					return
				}
				last = time.Now()
			}
		}()
	}
	wg.Wait()
}

// openLoop sends each op of the schedule at its due time (relative to
// start). The dashboard's polls (cluster, outliers) go out on a
// connection of their own, as a dashboard would hold one; the
// interactive users share the other conns-1, FIFO. A live-run batch
// waits for the previous batch of the same run. Each request is timed
// from its due time, so a stall also charges the requests queued
// behind it, and the dispatcher records how late it handed each op
// over.
func (c *client) openLoop(ctx context.Context, conns int, ops []op) {
	start := time.Now()
	// Both queues are sized to the schedule: dispatch never blocks.
	lanes := [2]chan op{make(chan op, len(ops)), make(chan op, len(ops))}
	workers := [2]int{max(conns-1, 1), 1}
	done := make([]chan struct{}, len(ops))
	prev := make([]int, len(ops))
	lastStep := map[int]int{}
	for i, o := range ops {
		done[i] = make(chan struct{})
		prev[i] = -1
		if o.Kind == opLive {
			if p, ok := lastStep[o.Doc]; ok {
				prev[i] = p
			}
			lastStep[o.Doc] = i
		}
	}
	var wg sync.WaitGroup
	for lane, n := range workers {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(queue chan op) {
				defer wg.Done()
				for o := range queue {
					if p := prev[o.ID]; p >= 0 {
						select {
						case <-done[p]:
						case <-ctx.Done():
						}
					}
					if ctx.Err() == nil {
						c.exec(ctx, o, start.Add(o.Due))
					}
					close(done[o.ID])
				}
			}(lanes[lane])
		}
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
dispatch:
	for _, o := range ops {
		due := start.Add(o.Due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		c.rec.addLag(msSince(due))
		lane := 0
		if o.Kind.dashboard() {
			lane = 1
		}
		lanes[lane] <- o
	}
	close(lanes[0])
	close(lanes[1])
	wg.Wait()
}
