package main

// The host-speed reference. The shared host this benchmark runs on
// slows every CPU-bound step by up to 2x, in spells that last from
// seconds to minutes, so the time of a diff or a reopen moves between
// runs of the same code by more than any bound worth gating. A fixed
// piece of work that calls nothing in the program slows by the same
// factor. Timing it all through a run and dividing the program's
// timings by it cancels the host's speed and leaves the program's.

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// refNominalMS is the kernel time setup_s is stated at: setup_s is the
// set-up time on a host where the kernel takes this long. On the
// 2-core Xeon VM the benchmark was sized on it takes 1.2–1.9 ms.
const refNominalMS = 1.0

// refEvery spaces the reference samples. One sample takes about a
// millisecond of one CPU, so the reference costs the run about 1 %.
const refEvery = 100 * time.Millisecond

// refKernel is the fixed work: integer arithmetic with scattered reads
// over a 128 KiB buffer, inserts and lookups in a map, and a sort, the
// kinds of work a diff does. Its working set fits in a core's private
// cache, so the program's own memory traffic barely reaches it.
type refKernel struct {
	buf  []uint64
	m    map[uint64]int
	keys []int
}

func newRefKernel() *refKernel {
	return &refKernel{buf: make([]uint64, 1<<14), m: make(map[uint64]int, 2048), keys: make([]int, 4096)}
}

func (k *refKernel) run() uint64 {
	var s uint64
	for r := 0; r < 32; r++ {
		for i := range k.buf {
			k.buf[i] = k.buf[i]*6364136223846793005 + uint64(i)
			s += k.buf[(i*7919)&(len(k.buf)-1)]
		}
	}
	clear(k.m)
	for i := 0; i < 2048; i++ {
		k.m[k.buf[i]] = i
	}
	for i := 0; i < 4096; i++ {
		s += uint64(k.m[k.buf[i]])
	}
	for i := range k.keys {
		k.keys[i] = int(k.buf[i] >> 33)
	}
	sort.Ints(k.keys)
	return s + uint64(k.keys[len(k.keys)/2])
}

// threadCPU is the CPU time the calling OS thread has used. A sample is
// timed in CPU time, not wall time, so that waiting for a CPU the
// program's own goroutines hold does not count, while a host that runs
// the thread's instructions slower does.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

type refSample struct {
	at time.Time
	ms float64
}

// refSampler runs the kernel every refEvery on a thread of its own
// until stop is called.
type refSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []refSample // written by the sampler until done is closed
	sink    uint64
}

func startRef() *refSampler {
	r := &refSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newRefKernel()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			at, c0 := time.Now(), threadCPU()
			r.sink += k.run()
			r.samples = append(r.samples, refSample{at: at, ms: float64(threadCPU()-c0) / 1e6})
			select {
			case <-r.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// stop ends the sampler and waits for it.
func (r *refSampler) stop() {
	close(r.quit)
	<-r.done
}

// within returns the kernel times of the samples taken in [from, to].
// Call it only after stop.
func (r *refSampler) within(from, to time.Time) []float64 {
	var out []float64
	for _, s := range r.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			out = append(out, s.ms)
		}
	}
	return out
}
