package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/txn"
)

// client is one load-generating goroutine's state, kept across phases
// so that transaction ids never repeat within a stack.
type client struct {
	idx, n int // this client's number, and how many there are
	seq    int // transactions issued so far
	arr    *arrivals
	_      [64]byte
}

// arrivals is one client's Poisson schedule: a pure function of
// (seed, client, rate). next returns the following due time as an
// offset from the start of the current segment.
type arrivals struct {
	rng  *rand.Rand
	rate float64 // arrivals per second
	t    float64 // seconds since the segment started
}

func newArrivals(seed int64, client int, rate float64) *arrivals {
	return &arrivals{rng: rand.New(rand.NewSource(seed*1000003 + int64(client) + 1)), rate: rate}
}

func (a *arrivals) restart() { a.t = 0 }

func (a *arrivals) next() time.Duration {
	a.t += a.rng.ExpFloat64() / a.rate
	return time.Duration(a.t * 1e9)
}

// tally is what one client saw in one phase.
type tally struct {
	offered, commits       int64
	gaveUp, shed, deadline int64
	notDurable             int64
	attempts               int64
	busy                   time.Duration // wall time inside ExecCtx
	lat                    hist          // ExecCtx latency of commits; open loop: from the due time
	lag                    hist          // open loop: start minus due
	_                      [64]byte
}

func (t *tally) failed() int64 { return t.gaveUp + t.shed + t.deadline + t.notDurable }

// observe files one outcome: busy is the time ExecCtx took, lat the
// latency charged to the transaction.
func (t *tally) observe(res txn.Result, busy, lat time.Duration) {
	t.offered++
	t.busy += busy
	t.attempts += int64(res.Attempts)
	switch {
	case res.Committed && res.Durable:
		t.commits++
		t.lat.record(int64(lat))
	case res.Committed:
		t.notDurable++
	case res.Shed:
		t.shed++
	case res.DeadlineExceeded:
		t.deadline++
	default:
		t.gaveUp++
	}
}

func (t *tally) add(o *tally) {
	t.offered += o.offered
	t.commits += o.commits
	t.gaveUp += o.gaveUp
	t.shed += o.shed
	t.deadline += o.deadline
	t.notDurable += o.notDurable
	t.attempts += o.attempts
	t.busy += o.busy
	t.lat.merge(&o.lat)
	t.lag.merge(&o.lag)
}

// procStats is the process-level cost of a phase.
type procStats struct {
	mallocs, allocBytes uint64
	gcCycles            uint32 // not counting the forced collections between phases
	gcPause             time.Duration
	cpu                 time.Duration
}

type procSample struct {
	ms  runtime.MemStats
	cpu time.Duration
}

func sampleProc() *procSample {
	s := &procSample{cpu: processCPU()}
	runtime.ReadMemStats(&s.ms)
	return s
}

func (a *procSample) since(b *procSample) procStats {
	return procStats{
		mallocs:    a.ms.Mallocs - b.ms.Mallocs,
		allocBytes: a.ms.TotalAlloc - b.ms.TotalAlloc,
		gcCycles:   (a.ms.NumGC - b.ms.NumGC) - (a.ms.NumForcedGC - b.ms.NumForcedGC),
		gcPause:    time.Duration(a.ms.PauseTotalNs - b.ms.PauseTotalNs),
		cpu:        a.cpu - b.cpu,
	}
}

// phaseResult is one phase: every client released on a barrier, run to
// the end, and joined.
type phaseResult struct {
	tally
	clients int
	wall    time.Duration
	proc    procStats
	slow    float64 // the host's slowdown around the phase, set by the caller
}

// txnCPU is the process CPU time the phase spent on transactions: all
// of it closed loop; open loop, the share of client time that was spent
// inside ExecCtx and not yield-waiting for the next arrival. Both
// shrink alike when the host takes the processor away, so the share
// does not depend on it.
func (p *phaseResult) txnCPU() time.Duration {
	share := p.busy.Seconds() / (float64(p.clients) * p.wall.Seconds())
	return time.Duration(float64(p.proc.cpu) * min(share, 1))
}

// cpuPerTxn is txnCPU per transaction offered, in microseconds.
func (p *phaseResult) cpuPerTxn() float64 {
	return float64(p.txnCPU().Nanoseconds()) / 1e3 / float64(p.offered)
}

// phase runs the stack's clients for dur, or, with count > 0, closed
// loop until count transactions have been offered (the warm-up: sized
// by work, not by time, so its cost is comparable between commits).
func (st *stack) phase(dur time.Duration, count int64) phaseResult {
	tallies := make([]tally, len(st.clients))
	var budget *atomic.Int64
	if count > 0 {
		budget = new(atomic.Int64)
		budget.Store(count)
	}
	var (
		start   time.Time
		release = make(chan struct{})
		wg      sync.WaitGroup
	)
	for i := range st.clients {
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			<-release
			if st.def.rate > 0 && budget == nil {
				st.openLoop(c, t, start, dur)
			} else {
				st.closedLoop(c, t, start.Add(dur), budget)
			}
		}(&st.clients[i], &tallies[i])
	}
	runtime.GC()
	before := sampleProc()
	start = time.Now()
	close(release)
	wg.Wait()
	res := phaseResult{clients: len(st.clients), wall: time.Since(start)}
	res.proc = sampleProc().since(before)
	for i := range tallies {
		res.add(&tallies[i])
	}
	return res
}

// exec runs one transaction, under a txn.exec span when tracing.
func (st *stack) exec(spec txn.Spec) txn.Result {
	if st.tracer == nil {
		return st.rt.ExecCtx(context.Background(), spec)
	}
	st.tracer.beginExec(spec.ID)
	res := st.rt.ExecCtx(context.Background(), spec)
	st.tracer.endExec(spec.ID)
	return res
}

func (st *stack) next(c *client) txn.Spec {
	spec := st.specAt(c, c.seq)
	c.seq++
	return spec
}

// closedLoop issues the next transaction as soon as the previous one
// returns, one clock reading per transaction.
func (st *stack) closedLoop(c *client, t *tally, end time.Time, budget *atomic.Int64) {
	for now := time.Now(); ; {
		if budget != nil {
			if budget.Add(-1) < 0 {
				return
			}
		} else if !now.Before(end) {
			return
		}
		res := st.exec(st.next(c))
		done := time.Now()
		t.observe(res, done.Sub(now), done.Sub(now))
		now = done
	}
}

// openLoop runs the client's own arrival schedule: it yields until the
// next due time, runs the transaction itself and charges it from the
// due time, so a stall is paid by every arrival it delayed and work in
// flight stays bounded by the number of clients. Arrivals due before
// the segment ends are all run, however late.
func (st *stack) openLoop(c *client, t *tally, start time.Time, dur time.Duration) {
	c.arr.restart()
	for {
		off := c.arr.next()
		if off >= dur {
			return
		}
		due := start.Add(off)
		now := time.Now()
		for now.Before(due) {
			runtime.Gosched()
			now = time.Now()
		}
		t.lag.record(int64(now.Sub(due)))
		res := st.exec(st.next(c))
		done := time.Now()
		t.observe(res, done.Sub(now), done.Sub(due))
	}
}
