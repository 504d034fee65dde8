package main

import (
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// The sandbox's host slows the guest by a factor that drifts from minute
// to minute (a busy sibling hyperthread, a shared cache, the clock):
// over twelve minutes of identical runs the process CPU time per
// transaction moved by 17-31 % and a fixed kernel of plain Go work moved
// with it, so that their quotient moved by 4-14 %. The gated timings are
// therefore CPU time divided by the slowdown of that kernel, read right
// before and right after each timed stretch on the same CPU clock.

const (
	// kernelIters sizes one reading at about 0.1 s, which repeats to
	// 1.7 % (inter-quartile range of twenty readings).
	kernelIters = 8000
	// refKernelNs is one iteration's CPU time on the reference box with a
	// quiet host: slowdown 1.0, at which normalised times read as plain
	// microseconds.
	refKernelNs = 15000
)

var kernelSink int64

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// slowdown times the reference kernel: seeding a generator, filling a
// small map under a mutex, and leaving both to the collector, which is
// the kind of work a transaction does. It shares no code with the
// repository, so no change to the repository can move it.
func slowdown() float64 {
	var mu sync.Mutex
	start := processCPU()
	for i := 0; i < kernelIters; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		m := make(map[string]int64, 4)
		for j := 0; j < 4; j++ {
			mu.Lock()
			m[string(rune('a'+j))] = rng.Int63()
			mu.Unlock()
		}
		kernelSink += int64(len(m))
	}
	return float64(processCPU()-start) / kernelIters / refKernelNs
}
