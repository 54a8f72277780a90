// Command perfbench is the repository's benchmark. It generates one
// workload from a seed, serves the provenance repository in-process
// over real HTTP on a loopback listener, drives it, checks the
// answers, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload diff-cold --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh compare a.json b.json
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// hardLimit bounds a whole run, set-up and checks included; the
// process must be gone well before three minutes.
const hardLimit = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	conns    int    // HTTP connections, = nproc
	root     string // parent of the run's scratch directory
	src      string // root of the source tree the stamp digests
	out      string // optional file for the full report
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: diff-cold or mixed-live")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload is generated from")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&cfg.root, "dir", ".bench_build", "directory for the run's scratch repositories and span files")
	fs.StringVar(&cfg.out, "out", "", "write the full report (stamp, every metric) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	cfg.src = "."
	cfg.conns = runtime.NumCPU()
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, hardLimit)
	defer cancel()

	rep, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, line := range rep.lines() {
		fmt.Fprintln(stdout, line)
	}
	if cfg.out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res := rep.result()
	final, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(final))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one benchmark in a fresh scratch directory, which it
// removes before returning whatever happened.
func execute(ctx context.Context, cfg config) (rep *report, err error) {
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.root, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	stamp, err := environment(cfg.src, "fs")
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, work: work, rec: &recorder{}}
	if cfg.trace {
		return b.traced(ctx, stamp)
	}
	if err := b.run(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.report(stamp), nil
}
