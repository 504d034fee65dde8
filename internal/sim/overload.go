package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/txn"
)

// OverloadConfig describes a goodput-vs-offered-load sweep: the base
// configuration is run once per factor with its worker count and
// workload scaled, and the resulting curve locates the saturation knee
// and what happens past it. With Base.Admit set the sweep measures how
// well admission control holds goodput at the knee under overload;
// without it, how hard the raw scheduler collapses.
type OverloadConfig struct {
	// Base is the 1× point: its Specs and Workers define one unit of
	// offered load. Everything else (scheduler, backoff, budgets,
	// admission, deadline) is reused verbatim at every point.
	Base Config
	// Factors are the offered-load multipliers to sweep, in order.
	// Default: 1, 2, 4, 8, 10.
	Factors []float64
	// Repeats runs each point this many times and keeps the run with the
	// median goodput (default 1). On a small host a single sub-second
	// run's goodput can swing 2x on scheduler and GC luck; the median of
	// three is a real run — counters stay internally consistent — with
	// the outliers filtered.
	Repeats int
}

// OverloadPoint is one measured point of the curve.
type OverloadPoint struct {
	Factor  float64 // offered-load multiplier
	Offered int     // transactions offered at this point
	Workers int     // concurrent clients at this point
	Report  *Report
}

// String renders one curve row.
func (p OverloadPoint) String() string {
	r := p.Report
	return fmt.Sprintf("x%-4g offered=%-6d workers=%-4d goodput=%.0f/s committed=%d shed=%d deadline-miss=%d gaveup=%d abort-rate=%.3f",
		p.Factor, p.Offered, p.Workers, r.Throughput(), r.Committed, r.Shed, r.DeadlineMiss, r.GaveUp, r.AbortRate())
}

// OverloadResult is the full sweep.
type OverloadResult struct {
	Points []OverloadPoint
	// Knee is the index of the point with the highest goodput — the
	// saturation knee of the curve. Past it, added offered load can only
	// be shed or burned.
	Knee int
}

// KneePoint returns the knee's measurement.
func (r *OverloadResult) KneePoint() OverloadPoint { return r.Points[r.Knee] }

// Retention returns the ratio of the final (highest-factor) point's
// goodput to the knee's: 1 means the system fully holds its best
// goodput under overload, values near 0 mean congestion collapse.
func (r *OverloadResult) Retention() float64 {
	knee := r.KneePoint().Report.Throughput()
	if knee <= 0 {
		return 0
	}
	return r.Points[len(r.Points)-1].Report.Throughput() / knee
}

// RunOverload sweeps the configured factors. Each point runs on a fresh
// scheduler and store (and, with Base.Admit set, a fresh controller):
// points are independent measurements, not a continuous ramp.
func RunOverload(cfg OverloadConfig) *OverloadResult {
	factors := cfg.Factors
	if len(factors) == 0 {
		factors = []float64{1, 2, 4, 8, 10}
	}
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	res := &OverloadResult{}
	for _, f := range factors {
		c := cfg.Base
		c.Workers = int(math.Ceil(float64(cfg.Base.Workers) * f))
		if c.Workers < 1 {
			c.Workers = 1
		}
		c.Specs = scaleSpecs(cfg.Base.Specs, f)
		reports := make([]*Report, 0, repeats)
		for i := 0; i < repeats; i++ {
			reports = append(reports, Run(c))
		}
		sort.Slice(reports, func(a, b int) bool { return reports[a].Throughput() < reports[b].Throughput() })
		p := OverloadPoint{Factor: f, Offered: len(c.Specs), Workers: c.Workers, Report: reports[len(reports)/2]}
		res.Points = append(res.Points, p)
		if p.Report.Throughput() > res.Points[res.Knee].Report.Throughput() {
			res.Knee = len(res.Points) - 1
		}
	}
	return res
}

// scaleSpecs replicates the workload to factor× its size, re-IDing the
// copies past the base range so every offered transaction is distinct.
func scaleSpecs(base []txn.Spec, factor float64) []txn.Spec {
	want := int(math.Ceil(float64(len(base)) * factor))
	if want <= len(base) {
		return base[:want]
	}
	stride := 0
	for _, s := range base {
		if s.ID > stride {
			stride = s.ID
		}
	}
	stride++
	out := make([]txn.Spec, 0, want)
	for copyN := 0; len(out) < want; copyN++ {
		for _, s := range base {
			if len(out) == want {
				break
			}
			s.ID += copyN * stride
			out = append(out, s)
		}
	}
	return out
}
