package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/txn"
)

// overloadOptions carries the -overload mode's knobs from main.
type overloadOptions struct {
	factors   []float64
	deadline  time.Duration
	shedPause time.Duration
	repeats   int
	workers   int
	csvPath   string
	jsonPath  string
}

// parseFactors parses the -overload argument: a comma-separated list of
// offered-load multipliers ("1,4,10").
func parseFactors(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad load factor %q (want positive numbers, e.g. 1,4,10)", part)
		}
		out = append(out, f)
	}
	return out, nil
}

// runOverloadSweep runs the E27 goodput-vs-offered-load A/B for every
// selected scheduler: each curve is swept twice on identical specs and
// seeds — admission control on, then off — so the two curves differ
// only in the overload controller. Rows and per-curve retention land in
// the optional CSV/JSON artifacts.
func runOverloadSweep(names []string, factories map[string]func(*storage.Store) sched.Scheduler,
	specs []txn.Spec, opts overloadOptions) int {
	fmt.Printf("overload sweep: factors=%v deadline=%v repeats=%d workers=%d offered(1x)=%d\n",
		opts.factors, opts.deadline, opts.repeats, opts.workers, len(specs))
	var rows []metrics.OverloadRow
	for _, name := range names {
		for _, withAdmit := range []bool{true, false} {
			base := sim.Config{
				NewScheduler: factories[name],
				Specs:        specs,
				Workers:      opts.workers,
				Backoff:      30 * time.Microsecond,
				RuntimeSeed:  7,
				Deadline:     opts.deadline,
				ShedPause:    opts.shedPause,
			}
			if withAdmit {
				// ElderAfter sits above the restart budget the deadline
				// allows: deadline-bounded transactions cannot starve, so
				// the elder machinery stays out of the goodput path (see
				// internal/sim/overload_test.go for the full rationale).
				base.Admit = &admit.Options{Aging: admit.AgingOptions{ElderAfter: 64}}
			}
			res := sim.RunOverload(sim.OverloadConfig{
				Base: base, Factors: opts.factors, Repeats: opts.repeats,
			})
			label := "no-adm"
			if withAdmit {
				label = "admit "
			}
			for _, p := range res.Points {
				fmt.Printf("%-10s %s: %s\n", name, label, p)
				r := p.Report
				rows = append(rows, metrics.OverloadRow{
					Sched: name, Admit: withAdmit,
					Factor: p.Factor, Offered: p.Offered, Workers: p.Workers,
					Committed: r.Committed, Shed: r.Shed,
					DeadlineMiss: r.DeadlineMiss, GaveUp: r.GaveUp,
					AbortRate: r.AbortRate(), Goodput: r.Throughput(),
					WallMS: float64(r.Wall.Microseconds()) / 1000,
				})
			}
			fmt.Printf("%-10s %s: knee at x%g, retention %.2f\n",
				name, label, res.KneePoint().Factor, res.Retention())
		}
	}
	if err := writeOverloadArtifacts(rows, opts); err != nil {
		fmt.Fprintf(os.Stderr, "mtsim: %v\n", err)
		return 1
	}
	return 0
}

func writeOverloadArtifacts(rows []metrics.OverloadRow, opts overloadOptions) error {
	if opts.csvPath != "" {
		f, err := os.Create(opts.csvPath)
		if err != nil {
			return err
		}
		if err := metrics.WriteOverloadCSV(f, rows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows)\n", opts.csvPath, len(rows))
	}
	if opts.jsonPath != "" {
		sum := metrics.OverloadSummary{
			Name:       "overload sweep",
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Notes: fmt.Sprintf("factors=%v deadline=%v shedpause=%v repeats=%d; goodput = commits inside deadline / wall",
				opts.factors, opts.deadline, opts.shedPause, opts.repeats),
			Rows:      rows,
			Retention: metrics.ComputeRetention(rows),
		}
		f, err := os.Create(opts.jsonPath)
		if err != nil {
			return err
		}
		if err := metrics.WriteOverloadJSON(f, sum); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", opts.jsonPath)
	}
	return nil
}
