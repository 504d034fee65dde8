package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Span kinds. A span's parent is whatever span is open on the same
// client when it starts: sched.* , wal.wait and txn.backoff under
// txn.exec, wal.journal under sched.commit.
type kind uint8

const (
	kExec kind = iota
	kBegin
	kRead
	kWrite
	kCommit
	kAbort
	kBackoff
	kJournal
	kWait
	nKinds
)

var kindNames = [nKinds]string{
	"txn.exec", "sched.begin", "sched.read", "sched.write", "sched.commit",
	"sched.abort", "txn.backoff", "wal.journal", "wal.wait",
}

// span is one recorded interval, in nanoseconds since the tracer's
// epoch. Parent indexes the same client's span list (-1 for a root).
type span struct {
	Kind       kind
	Txn        int
	Start, End int64
	Parent     int
}

// maxSpansPerClient bounds the spans kept for the trace file; the
// per-kind totals below cover every span regardless.
const maxSpansPerClient = 8192

// recorder holds one client's spans. A client runs one transaction at
// a time and every decorated call happens on its goroutine, so a
// recorder needs no lock; the stack is at most exec > commit > journal.
type recorder struct {
	open  []openSpan
	spans []span

	count [nKinds]int64
	total [nKinds]int64 // summed durations
	child [nKinds]int64 // part of total covered by direct children

	abortAt [nKinds]int64 // rejected calls, by the call that returned the error
	_       [64]byte      // keep neighbouring clients off one cache line
}

type openSpan struct {
	kind  kind
	start int64
	slot  int // index in spans, -1 when the buffer was full
}

func (r *recorder) push(k kind, txn int, now int64) {
	slot := -1
	if len(r.spans) < maxSpansPerClient {
		parent := -1
		if n := len(r.open); n > 0 {
			parent = r.open[n-1].slot
		}
		slot = len(r.spans)
		r.spans = append(r.spans, span{Kind: k, Txn: txn, Start: now, Parent: parent})
	}
	r.open = append(r.open, openSpan{kind: k, start: now, slot: slot})
}

func (r *recorder) pop(now int64) {
	n := len(r.open) - 1
	o := r.open[n]
	r.open = r.open[:n]
	d := now - o.start
	r.count[o.kind]++
	r.total[o.kind] += d
	if n > 0 {
		r.child[r.open[n-1].kind] += d
	}
	if o.slot >= 0 {
		r.spans[o.slot].End = now
	}
}

// top reports the kind of the innermost open span.
func (r *recorder) top() (kind, bool) {
	if len(r.open) == 0 {
		return 0, false
	}
	return r.open[len(r.open)-1].kind, true
}

// self is a kind's summed self time: its spans minus their children.
func (r *recorder) self(k kind) int64 { return r.total[k] - r.child[k] }

func (r *recorder) add(o *recorder) {
	for k := kind(0); k < nKinds; k++ {
		r.count[k] += o.count[k]
		r.total[k] += o.total[k]
		r.child[k] += o.child[k]
		r.abortAt[k] += o.abortAt[k]
	}
}

// tracer measures a stack from outside: it decorates the interfaces
// txn.Runtime already accepts and timestamps every call through them.
type tracer struct {
	epoch   time.Time
	clients []recorder
}

func newTracer(clients int) *tracer {
	t := &tracer{epoch: time.Now(), clients: make([]recorder, clients)}
	for i := range t.clients {
		t.clients[i].open = make([]openSpan, 0, 4)
		t.clients[i].spans = make([]span, 0, maxSpansPerClient)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// of maps a transaction id to its client's recorder (see client.nextID).
func (t *tracer) of(txn int) *recorder { return &t.clients[(txn-1)%len(t.clients)] }

// beginExec and endExec bracket one ExecCtx call. endExec also closes a
// backoff span left open by a transaction that gave up after an abort.
func (t *tracer) beginExec(txn int) { t.of(txn).push(kExec, txn, t.now()) }

func (t *tracer) endExec(txn int) {
	r, now := t.of(txn), t.now()
	for len(r.open) > 0 {
		r.pop(now)
	}
}

func (t *tracer) totals() *recorder {
	sum := &recorder{}
	for i := range t.clients {
		sum.add(&t.clients[i])
	}
	return sum
}

// writeFile writes the kept spans as one JSON array. A span's id is
// "<client>.<index>"; spans of one transaction share "txn".
func (t *tracer) writeFile(path string) error {
	type out struct {
		ID     [2]int `json:"id"`
		Name   string `json:"name"`
		Txn    int    `json:"txn"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent *int   `json:"parent,omitempty"`
	}
	var all []out
	for c := range t.clients {
		for i := range t.clients[c].spans {
			s := &t.clients[c].spans[i]
			o := out{ID: [2]int{c, i}, Name: kindNames[s.Kind], Txn: s.Txn, Start: s.Start, End: s.End}
			if s.Parent >= 0 {
				o.Parent = &s.Parent
			}
			all = append(all, o)
		}
	}
	buf, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// tracedSched decorates a sched.Scheduler with one span per call.
type tracedSched struct {
	sched.Scheduler
	t *tracer
}

func (s *tracedSched) Begin(txn int) {
	r, now := s.t.of(txn), s.t.now()
	if k, ok := r.top(); ok && k == kBackoff {
		r.pop(now) // the retry starts: the gap since Abort returned ends
	}
	r.push(kBegin, txn, now)
	s.Scheduler.Begin(txn)
	r.pop(s.t.now())
}

func (s *tracedSched) Read(txn int, item string) (int64, error) {
	r := s.t.of(txn)
	r.push(kRead, txn, s.t.now())
	v, err := s.Scheduler.Read(txn, item)
	r.pop(s.t.now())
	if err != nil {
		r.abortAt[kRead]++
	}
	return v, err
}

func (s *tracedSched) Write(txn int, item string, v int64) error {
	r := s.t.of(txn)
	r.push(kWrite, txn, s.t.now())
	err := s.Scheduler.Write(txn, item, v)
	r.pop(s.t.now())
	if err != nil {
		r.abortAt[kWrite]++
	}
	return err
}

func (s *tracedSched) Commit(txn int) error {
	r := s.t.of(txn)
	r.push(kCommit, txn, s.t.now())
	err := s.Scheduler.Commit(txn)
	r.pop(s.t.now())
	if err != nil {
		r.abortAt[kCommit]++
	}
	return err
}

func (s *tracedSched) Abort(txn int) {
	r := s.t.of(txn)
	r.push(kAbort, txn, s.t.now())
	s.Scheduler.Abort(txn)
	now := s.t.now()
	r.pop(now)
	r.push(kBackoff, txn, now)
}

// journal decorates the store's journal hook. Anonymous batches (the
// preload, Txn 0) run on the set-up goroutine and are passed through.
func (t *tracer) journal(inner storage.Journal) storage.Journal {
	return func(ev storage.ApplyEvent) {
		if ev.Txn == 0 {
			inner(ev)
			return
		}
		r := t.of(ev.Txn)
		r.push(kJournal, ev.Txn, t.now())
		inner(ev)
		r.pop(t.now())
	}
}

// durable is what txn.Runtime.Durable accepts.
type durable interface{ Wait(txn int) error }

type tracedDurable struct {
	inner durable
	t     *tracer
}

func (d *tracedDurable) Wait(txn int) error {
	r := d.t.of(txn)
	r.push(kWait, txn, d.t.now())
	err := d.inner.Wait(txn)
	r.pop(d.t.now())
	return err
}
