package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/oplog"
)

// digestEngine is what the decision digests drive on both MT(k) engines.
type digestEngine interface {
	Step(oplog.Op) core.Decision
	Commit(i int)
	Abort(i, blocker int)
	Watermarks() (lo, hi int64)
	LiveVectors() int
}

// digestRows is the differential matrix plus MT(1) and MT(3) with the
// starvation fix alone.
func digestRows() (names []string, opts []engine.Options) {
	names, opts = engine.DiffMatrix()
	names = append(names, "k1-starve", "k3-starve")
	opts = append(opts, engine.Options{K: 1, StarvationAvoidance: true},
		engine.Options{K: 3, StarvationAvoidance: true})
	return names, opts
}

// recorder serializes every decision, trace event and end-of-run
// counter reading into one byte stream, hashed at the end.
type recorder struct{ buf []byte }

func (r *recorder) ints(vs ...int64) {
	for _, v := range vs {
		r.buf = strconv.AppendInt(r.buf, v, 10)
		r.buf = append(r.buf, ' ')
	}
}

func (r *recorder) event(e core.Event) {
	r.buf = append(r.buf, 'e')
	r.ints(int64(e.Kind), int64(e.Txn), int64(e.Pos), e.Val, int64(e.J), int64(e.I))
}

func (r *recorder) decision(d core.Decision) {
	r.buf = append(r.buf, 'd')
	r.ints(int64(d.Verdict), int64(d.Blocker))
	r.buf = append(r.buf, d.Item...)
	for _, x := range d.IgnoredItems {
		r.buf = append(r.buf, ' ')
		r.buf = append(r.buf, x...)
	}
	r.buf = append(r.buf, '\n')
}

func (r *recorder) end(e digestEngine) {
	lo, hi := e.Watermarks()
	r.buf = append(r.buf, 'w')
	r.ints(lo, hi, int64(e.LiveVectors()))
	r.buf = append(r.buf, '\n')
}

// digestEngines builds a fresh engine of each kind, tracing into r.
func digestEngines(opts engine.Options, r *recorder) [2]func() digestEngine {
	opts.Trace = r.event
	return [2]func() digestEngine{
		func() digestEngine { return engine.NewScheduler(opts) },
		func() digestEngine { return engine.NewStripedSize(opts, 4) },
	}
}

// twoStepDigest runs every two-step log of three transactions over
// {x,y,z} through a fresh engine each: a transaction commits after its
// last operation and is aborted against the blocker on a rejection.
func twoStepDigest(mk func() digestEngine, r *recorder) string {
	h := sha256.New()
	enumerate.TwoStepLogs(3, []string{"x", "y", "z"}, func(l *oplog.Log) bool {
		e := mk()
		last := make(map[int]int)
		for idx, op := range l.Ops {
			last[op.Txn] = idx
		}
		dead := make(map[int]bool)
		for idx, op := range l.Ops {
			if dead[op.Txn] {
				continue
			}
			d := e.Step(op)
			r.decision(d)
			switch {
			case d.Verdict == core.Reject:
				dead[op.Txn] = true
				e.Abort(op.Txn, d.Blocker)
			case last[op.Txn] == idx:
				e.Commit(op.Txn)
			}
		}
		r.end(e)
		h.Write(r.buf)
		r.buf = r.buf[:0]
		return true
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// randomDigest replays the random streams of TestStripedMatchesCoarse
// (seeds 1-6, the same draws) through one engine.
func randomDigest(mk func() digestEngine, r *recorder) string {
	h := sha256.New()
	items := []string{"a", "b", "c", "d", "e"}
	for seed := int64(1); seed <= 6; seed++ {
		e := mk()
		rng := rand.New(rand.NewSource(seed))
		blockers := make(map[int]int)
		live := make(map[int]bool)
		for n := 0; n < 400; n++ {
			i := 1 + rng.Intn(12)
			var op oplog.Op
			switch x := rng.Float64(); {
			case x < 0.40:
				k := 1
				if rng.Intn(4) == 0 {
					k = 2
				}
				op = oplog.R(i, pick(rng, items, k)...)
			case x < 0.80:
				op = oplog.W(i, pick(rng, items, 1)...)
			case x < 0.92:
				if live[i] {
					e.Commit(i)
					delete(live, i)
					delete(blockers, i)
				}
				continue
			default:
				if live[i] {
					e.Abort(i, blockers[i])
					delete(live, i)
					delete(blockers, i)
				}
				continue
			}
			d := e.Step(op)
			r.decision(d)
			live[i] = true
			if d.Verdict == core.Reject {
				blockers[i] = d.Blocker
			}
		}
		r.end(e)
	}
	h.Write(r.buf)
	r.buf = r.buf[:0]
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func pick(rng *rand.Rand, items []string, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		x := items[rng.Intn(len(items))]
		dup := false
		for _, y := range out {
			dup = dup || y == x
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

// decisionDigests pins, per option row, the hash of every Decision,
// every trace event, the final watermarks and the live-vector count
// over the two corpora: {two-step, random}.
var decisionDigests = map[string][2]string{
	"k1":         {"d32509b34b4e0a53", "62fbeaf23aed0533"},
	"k2":         {"f7cba5055b673695", "8b6e7ec4b901987c"},
	"k3":         {"7b8e8e229dca7431", "547c0d3537ecf95f"},
	"k2-thomas":  {"d44aa1194501d9fe", "354890b358120cbd"},
	"k2-starve":  {"61b6ed85fb17f61f", "2b876e7eb17c94bd"},
	"k2-relaxed": {"f7cba5055b673695", "32faacf92d893e51"},
	"k3-mono":    {"a3415f98ff17cb88", "5c85f695c9cdfda7"},
	"k3-hot":     {"8491b3eb5121cd68", "75f8d636b6176844"},
	"k3-all":     {"b181eaa14b2b0204", "54d8a75de6a529e8"},
	"k1-starve":  {"4f5e428271d88e81", "9182b1e74b5f0e68"},
	"k3-starve":  {"cb2e3db91ce8df37", "251b1acc6eea1e90"},
}

// TestDecisionDigests holds both MT(k) engines to the pinned decision
// digests: any change to what Algorithm 1 decides, encodes, reseeds or
// reclaims — on either engine — changes a digest.
func TestDecisionDigests(t *testing.T) {
	names, opts := digestRows()
	for n, name := range names {
		t.Run(name, func(t *testing.T) {
			var r recorder
			for eng, mk := range digestEngines(opts[n], &r) {
				got := [2]string{twoStepDigest(mk, &r), randomDigest(mk, &r)}
				if want := decisionDigests[name]; got != want {
					t.Errorf("%s on the %s engine: digests %q, want %q", name, []string{"coarse", "striped"}[eng], got, want)
				}
			}
		})
	}
}
