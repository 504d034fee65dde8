// Command benchmark is the repository's cost-ledger benchmark: it builds
// each workload's stack from the public constructors, drives
// txn.Runtime.ExecCtx from its own client goroutines, checks the
// outputs, and prints every metric by name with its unit. See README.md.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                       all workloads, end-to-end metrics
//	bash benchmark/run.sh -trace 1              all workloads, per-layer ledger
//	bash benchmark/run.sh -workload uniform_closed -seed 2 -seconds 24 -trace 0
//	bash benchmark/run.sh -quick                a 15 s smoke run with the checks on
//	bash benchmark/run.sh -aa 10                the A/A table of AA.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// maxProcs caps GOMAXPROCS: the reference numbers must mean the same
// on a large box as on the 2-core sandbox.
const maxProcs = 4

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them)")
		seed    = flag.Int64("seed", 1, "workload seed: the spec pool and arrival schedules are made from it")
		seconds = flag.Float64("seconds", 18, "measured seconds per run, split into segments")
		trace   = flag.Int("trace", 0, "1: the traced run that reports the per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke run: one 1 s segment per workload, one set-up, checks on")
		aa      = flag.Int("aa", 0, "run two interleaved sets of N runs per workload and print the A/A table")
		tmp     = flag.String("tmp", ".bench_build/tmp", "scratch directory for WAL directories")
		out     = flag.String("out", "benchmark/out", "directory for trace-<workload>.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	defs := workloads
	if *name != "" {
		d := findWorkload(*name)
		if d == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		defs = []workloadDef{*d}
	}
	if *aa > 0 {
		if err := runAA(defs, *aa, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fatal(err)
	}
	ok := true
	for i := range defs {
		cfg := runConfig{
			def: &defs[i], seed: *seed, procs: procs, trace: *trace != 0,
			segments: 6, segment: time.Duration(*seconds / 6 * float64(time.Second)),
			setups: 3, warmup: defs[i].warmup, ledgerN: poolSize,
			tmp: *tmp, traceDir: *out,
		}
		if cfg.trace {
			// Two plain and two traced segments; the remaining third of
			// the run's time goes to the serial rows.
			cfg.segments, cfg.setups = 4, 1
		}
		if *quick {
			cfg.segments, cfg.segment, cfg.setups = 1, time.Second, 1
			cfg.warmup, cfg.ledgerN = cfg.warmup/5, poolSize/16
			if cfg.trace {
				cfg.segments = 2
			}
		}
		res, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		ok = report(res, cfg.trace) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// report prints a run for people on standard error and as one JSON
// object on standard output. It returns whether the run was correct.
func report(res runResult, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{
		Correct: len(res.Problems) == 0, Attempted: res.Offered, Failed: res.Failed,
		Metrics: map[string]metricValue{},
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d offered=%d failed=%d (share %.6f)\n",
		res.Workload, res.Seed, res.Offered, res.Failed, float64(res.Failed)/float64(max(res.Offered, 1)))
	for _, d := range defs {
		v, measured := res.Metrics[d.name]
		if !measured {
			res.Problems = append(res.Problems, "metric "+d.name+" was not measured")
			out.Correct = false
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, d := range perLayer {
		if v, ok := res.Wall[d.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-36s %14.4f (wall clock, ungated)\n", d.name, v)
		}
	}
	sort.Strings(res.Problems)
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return out.Correct
}
