package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/storage"
)

func TestHistPercentilesAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	ref := make([]float64, 0, 200000)
	for i := 0; i < cap(ref); i++ {
		// Log-uniform over 100 ns .. 100 ms, the range latencies live in.
		v := int64(100 * math.Pow(10, 6*rng.Float64()))
		h.record(v)
		ref = append(ref, float64(v))
	}
	sort.Float64s(ref)
	for _, p := range []float64{1, 25, 50, 90, 95, 99, 99.9} {
		want := ref[int(p/100*float64(len(ref)))]
		got := h.percentile(p)
		if math.Abs(got-want)/want > 1.0/histSub {
			t.Errorf("p%v = %v, sorted reference %v: off by more than a bucket", p, got, want)
		}
	}
	for _, v := range []int64{0, 1, histSub - 1, histSub, 12345, 1 << 30, 1<<histMaxBits - 1} {
		lo, hi := histBounds(histIndex(v))
		if v < lo || v >= hi {
			t.Errorf("value %d filed under bucket [%d, %d)", v, lo, hi)
		}
	}
}

func TestMergedHistEqualsOneHist(t *testing.T) {
	var a, b, whole hist
	for i := int64(0); i < 10000; i++ {
		whole.record(i * 37)
		if i%2 == 0 {
			a.record(i * 37)
		} else {
			b.record(i * 37)
		}
	}
	a.merge(&b)
	if a != whole {
		t.Error("merging per-client histograms differs from recording into one")
	}
}

func TestSegmentMedianIgnoresOnePoisonedSegment(t *testing.T) {
	clean := []float64{80.1, 79.6, 81.0, 80.4, 79.9, 80.7}
	poisoned := append([]float64(nil), clean...)
	poisoned[3] = 16000 // one segment hit by a machine stall
	got := median(poisoned)
	if got < 79.6 || got > 81.0 {
		t.Errorf("median with a poisoned segment = %v, outside the clean segments' range", got)
	}
	if math.Abs(got-median(clean))/median(clean) > 0.01 {
		t.Errorf("poisoned segment moved the median from %v to %v", median(clean), got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	for i := range workloads {
		d := &workloads[i]
		a, _ := genPool(d, 5)
		b, _ := genPool(d, 5)
		c, _ := genPool(d, 6)
		if len(a) != poolSize {
			t.Fatalf("%s: pool of %d specs, want %d", d.name, len(a), poolSize)
		}
		same, differs := true, false
		for j := range a {
			same = same && reflect.DeepEqual(a[j].Ops, b[j].Ops)
			differs = differs || !reflect.DeepEqual(a[j].Ops, c[j].Ops)
		}
		if !same {
			t.Errorf("%s: the same seed gave two different pools", d.name)
		}
		if !differs {
			t.Errorf("%s: seeds 5 and 6 gave the same pool", d.name)
		}
	}
	x, y, z, w := newArrivals(5, 0, 8000), newArrivals(5, 0, 8000), newArrivals(6, 0, 8000), newArrivals(5, 1, 8000)
	var last time.Duration
	same, seedDiffers, clientDiffers := true, false, false
	for i := 0; i < 10000; i++ {
		a := x.next()
		same = same && a == y.next()
		seedDiffers = seedDiffers || a != z.next()
		clientDiffers = clientDiffers || a != w.next()
		if a < last {
			t.Fatalf("arrival %d due at %v, before the previous one at %v", i, a, last)
		}
		last = a
	}
	if !same || !seedDiffers || !clientDiffers {
		t.Errorf("arrival schedules: same seed equal=%v, other seed differs=%v, other client differs=%v",
			same, seedDiffers, clientDiffers)
	}
	if mean := last.Seconds() / 10000; math.Abs(mean*8000-1) > 0.05 {
		t.Errorf("mean gap %v s at 8000 arrivals/s", mean)
	}
}

func TestSpanSelfTimesSumToTheRoot(t *testing.T) {
	// exec [0,100] > begin [5,10], read [10,30], commit [40,90] > journal [50,70],
	// then abort [90,92] and the backoff gap [92,100] closed by endExec's rule.
	var r recorder
	r.push(kExec, 1, 0)
	for _, s := range []struct {
		k          kind
		start, end int64
	}{{kBegin, 5, 10}, {kRead, 10, 30}} {
		r.push(s.k, 1, s.start)
		r.pop(s.end)
	}
	r.push(kCommit, 1, 40)
	r.push(kJournal, 1, 50)
	r.pop(70)
	r.pop(90)
	r.push(kAbort, 1, 90)
	r.pop(92)
	r.push(kBackoff, 1, 92)
	r.pop(100)
	r.pop(100)

	var sum int64
	for k := kind(0); k < nKinds; k++ {
		sum += r.self(k)
	}
	if sum != r.total[kExec] || sum != 100 {
		t.Errorf("self times sum to %d, root span is %d", sum, r.total[kExec])
	}
	if got := r.self(kCommit); got != 30 {
		t.Errorf("commit self time %d, want 50 minus the 20 of its journal child", got)
	}
	if got := r.self(kExec); got != 100-(5+20+50+2+8) {
		t.Errorf("exec self time %d, want 15", got)
	}
	if len(r.open) != 0 {
		t.Errorf("%d spans left open", len(r.open))
	}
}

// stallSched accepts everything and stalls once, in one commit.
type stallSched struct {
	stallAt int
	stall   time.Duration
	commits int
}

func (*stallSched) Name() string                    { return "stall" }
func (*stallSched) Begin(int)                       {}
func (*stallSched) Read(int, string) (int64, error) { return 0, nil }
func (*stallSched) Write(int, string, int64) error  { return nil }
func (*stallSched) Abort(int)                       {}
func (s *stallSched) Commit(int) error {
	if s.commits++; s.commits == s.stallAt {
		time.Sleep(s.stall)
	}
	return nil
}

// The coordinated-omission test: a closed-loop timer would see one slow
// transaction; the open loop must charge the stall to every arrival
// that came due while it lasted.
func TestOpenLoopChargesAStallToQueuedArrivals(t *testing.T) {
	const rate, stall = 2000, 10 * time.Millisecond
	fake := &stallSched{stallAt: 20, stall: stall}
	d := &workloadDef{
		name: "stall", items: 8, rate: rate,
		sched: func(*storage.Store) sched.Scheduler { return fake },
	}
	st, err := build(d, 1, t.TempDir(), stackOpts{clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := st.phase(100*time.Millisecond, 0)
	if res.failed() != 0 || res.commits != res.offered || res.offered < 100 {
		t.Fatalf("offered %d, commits %d, failed %d", res.offered, res.commits, res.failed())
	}
	var slow uint32
	for i := histIndex(int64(2 * time.Millisecond)); i < histBuckets; i++ {
		slow += res.lat.counts[i]
	}
	// ~20 arrivals come due during a 10 ms stall at 2000/s; those in its
	// first 8 ms wait at least 2 ms.
	if slow < 8 {
		t.Errorf("%d arrivals charged 2 ms or more for a %v stall at %d/s; the stall was not charged to the queue behind it", slow, stall, rate)
	}
	if lag := res.lag.percentile(100); lag < float64(stall)/2 {
		t.Errorf("largest start lag %v ns: the generator did not report running late", lag)
	}
}

func TestChecksCatchWrongOutputs(t *testing.T) {
	for _, name := range []string{"uniform_closed", "bank_hot_closed"} {
		d := findWorkload(name)
		st, err := build(d, 1, t.TempDir(), stackOpts{clients: 2})
		if err != nil {
			t.Fatal(err)
		}
		phases := []phaseResult{st.phase(0, 2000)}
		if bad := st.check(phases); len(bad) != 0 {
			t.Fatalf("%s: a clean run fails its checks: %v", name, bad)
		}
		if phases[0].offered != 2000 {
			t.Errorf("%s: count-based phase offered %d, want 2000", name, phases[0].offered)
		}
		st.store.Set(st.items[0], st.store.Get(st.items[0])+1_000_000_007)
		if bad := st.check(phases); len(bad) == 0 {
			t.Errorf("%s: a corrupted item passed the checks", name)
		}
		phases[0].commits--
		if bad := st.check(phases); len(bad) < 2 {
			t.Errorf("%s: a lost transaction passed the accounting check", name)
		}
	}
}

// BENCHMARK.json is the contract other changes are held to; it must
// name exactly what this program measures.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []jm, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, w := range want {
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != better || g.Bound != w.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
		}
	}
	compare("end-to-end", doc.EndToEnd, endToEnd)
	compare("per-layer", doc.PerLayer, perLayer)
}
