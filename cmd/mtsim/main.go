// Command mtsim runs runtime throughput/abort experiments: a generated
// workload executes on goroutine workers under a chosen concurrency
// controller, and the tool prints commits, restarts, abort rate,
// throughput and latency percentiles.
//
// Usage:
//
//	mtsim -sched mt -k 3 -txns 2000 -ops 4 -items 64 -readfrac 0.7 -workers 8
//	mtsim -sched all -hotitems 4 -hotfrac 0.8
//	mtsim -chaos crash-drift -sites 4 -txns 2000
//	mtsim -sched mtdefer -wal /tmp/mtwal -walsync group -checkpoint-every 512
//	mtsim -sched mtdefer -crashpoint -1 -txns 200
//	mtsim -sched mt,composite -overload 1,4,10 -deadline 25ms -repeats 3
//
// Schedulers: mt, mtdefer, composite, dmt, 2pl, to, occ, sgt, interval,
// mvmt, a comma-separated subset, or "all" to sweep every one over the
// same workload.
//
// With -overload <factors>, the tool runs the goodput-vs-offered-load
// sweep instead (EXPERIMENTS.md E27): for each selected scheduler the
// workload is replicated to factor× its size with proportionally more
// client workers, twice per factor — admission control on, then off —
// and the tool prints each curve's saturation knee and how much of the
// knee's goodput survives at the highest factor. Every transaction
// carries the -deadline budget (default 25ms in this mode); goodput
// counts only commits inside it. -csv/-json write the curve artifacts.
//
// With -admit (outside -overload), a plain run gets the overload
// controller in front of the runtime: an adaptive AIMD concurrency
// limiter sheds excess load, restart-storm damping widens backoffs, and
// priority aging protects starving transactions.
//
// With -wal <dir>, commits are durable: every commit appends a redo
// record to a write-ahead log in <dir> (group-committed per -walsync:
// always, group or none) and acks only after fsync; a later run over
// the same directory recovers the store and counter watermarks before
// traffic. -sched all logs each scheduler under its own subdirectory.
//
// With -crashpoint N, the tool runs the in-process crash-point harness
// instead: the WAL lives on an in-memory disk that dies at the N-th
// I/O operation, the "machine" restarts, and recovery is verified
// against a shadow copy (exact state match, no acked-durable commit
// lost, counter watermarks dominate, and — for the MT family — no
// k-th-column counter value re-issued). N = -1 sweeps every I/O
// operation of a clean run.
//
// With -chaos <plan>, the workload runs on DMT(k) under a named,
// seed-deterministic fault plan (message loss, delays, site crash and
// recovery) and the tool reports commit rate, unavailability aborts,
// gave-up transactions, injector counters and per-site recovery latency.
// Chaos runs are reproducible: the fault schedule is a pure function of
// (-faultseed, plan, -sites) and retry jitter of (-seed), so re-running
// with identical flags replays the identical schedule — the tool prints
// the decision list and a repro header (effective seeds plus the planned
// fault schedule) so two runs can be diffed.
//
// With -partition <plan>, the tool runs the plan twice on the same
// seeds — fail-fast vs degraded-mode parked commits — and compares
// commit availability during the degraded windows. Plans with
// partitions: partition, partition-asym, partition-crash. Add -sitewal
// to give every DMT site a durable counter-lease sidecar so a
// recovering site reseeds its own counters without help from survivors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/interval"
	"repro/internal/lock"
	"repro/internal/mvmt"
	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/sgt"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tsto"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	schedName := flag.String("sched", "all", "scheduler: mt|mtmono|mtdefer|composite|adaptive|dmt|2pl|to|occ|sgt|interval|mvmt|all")
	k := flag.Int("k", 0, "vector size for the MT family (0 = 2q-1 per Theorem 3)")
	txns := flag.Int("txns", 2000, "number of transactions")
	ops := flag.Int("ops", 4, "operations per transaction")
	items := flag.Int("items", 64, "database size")
	readFrac := flag.Float64("readfrac", 0.7, "fraction of reads")
	hotItems := flag.Int("hotitems", 0, "hotspot size (0 = uniform)")
	hotFrac := flag.Float64("hotfrac", 0.8, "fraction of accesses to the hotspot")
	workers := flag.Int("workers", 8, "concurrent client goroutines")
	maxAttempts := flag.Int("maxattempts", 1000, "per-transaction retry budget")
	seed := flag.Int64("seed", 1, "workload seed")
	sites := flag.Int("sites", 4, "DMT(k) site count (dmt scheduler and -chaos)")
	chaos := flag.String("chaos", "", "fault plan for a DMT(k) chaos run: "+strings.Join(fault.PlanNames(), "|"))
	partition := flag.String("partition", "", "partition-tolerance A/B: run the named fault plan twice on the same seeds, fail-fast vs degraded parked commits, and compare commit availability")
	siteWAL := flag.Bool("sitewal", false, "give every DMT site a durable counter-lease sidecar (-chaos/-partition)")
	faultSeed := flag.Int64("faultseed", 1, "fault-injection seed (-chaos)")
	unavailBudget := flag.Int("unavailbudget", 64, "per-transaction unavailability retry budget (-chaos)")
	walDir := flag.String("wal", "", "write-ahead log directory: enables durable commits")
	walSync := flag.String("walsync", "group", "WAL sync policy: always|group|none")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint the WAL after N log records (0 = never)")
	crashPoint := flag.Int64("crashpoint", 0, "crash-point harness: kill the in-memory disk at the Nth I/O op, recover, verify (-1 = sweep all ops, 0 = off)")
	overload := flag.String("overload", "", "goodput-vs-offered-load sweep: comma-separated load factors (e.g. 1,4,10), admission on vs off per scheduler")
	deadline := flag.Duration("deadline", 0, "per-transaction deadline, admission wait and retries included (0 = none; -overload defaults to 25ms)")
	shedPause := flag.Duration("shedpause", 200*time.Microsecond, "rejected client's retry-after pause before offering its next transaction")
	repeats := flag.Int("repeats", 1, "runs per overload point, keeping the median-goodput run (-overload)")
	admitOn := flag.Bool("admit", false, "put the overload controller (adaptive admission, storm damping, aging) in front of the runtime")
	csvPath := flag.String("csv", "", "write overload sweep rows to this CSV file (-overload)")
	jsonPath := flag.String("json", "", "write the overload sweep summary to this JSON file (-overload)")
	flag.Parse()

	if *k <= 0 {
		*k = 2*(*ops) - 1
	}
	specs := workload.Config{
		Txns: *txns, OpsPerTxn: *ops, Items: *items,
		ReadFraction: *readFrac, HotItems: *hotItems, HotFraction: *hotFrac,
		Seed: *seed,
	}.Generate()

	if *partition != "" {
		os.Exit(runPartition(specs, *partition, *k, *sites, *workers, *maxAttempts,
			*unavailBudget, *seed, *faultSeed, *siteWAL))
	}
	if *chaos != "" {
		runChaos(specs, *chaos, *k, *sites, *workers, *maxAttempts, *unavailBudget, *seed, *faultSeed, *siteWAL)
		return
	}

	factories := map[string]func(*storage.Store) sched.Scheduler{
		"composite": func(st *storage.Store) sched.Scheduler {
			return sched.NewComposite(st, *k, engine.Options{StarvationAvoidance: true})
		},
		"2pl": func(st *storage.Store) sched.Scheduler { return lock.NewTwoPL(st) },
		"to": func(st *storage.Store) sched.Scheduler {
			return tsto.New(st, tsto.Options{ThomasWriteRule: true})
		},
		"occ":      func(st *storage.Store) sched.Scheduler { return occ.New(st) },
		"sgt":      func(st *storage.Store) sched.Scheduler { return sgt.New(st) },
		"interval": func(st *storage.Store) sched.Scheduler { return interval.New(st, interval.Options{}) },
		"mvmt":     func(st *storage.Store) sched.Scheduler { return mvmt.New(st, mvmt.Options{K: *k}) },
		"adaptive": func(st *storage.Store) sched.Scheduler {
			return adaptive.New(st, adaptive.Options{
				InitialK: 1, MaxK: *k,
				Core: engine.Options{StarvationAvoidance: true},
			})
		},
		"dmt": func(st *storage.Store) sched.Scheduler {
			return sched.NewDMT(st, dmt.Options{K: *k, Sites: *sites})
		},
	}
	for _, name := range []string{"mt", "mtmono", "mtdefer"} {
		factories[name] = func(st *storage.Store) sched.Scheduler {
			return sched.NewMTStriped(st, mtOptions(name, *k, nil))
		}
	}
	order := []string{"mt", "mtmono", "mtdefer", "composite", "adaptive", "dmt", "2pl", "to", "occ", "sgt", "interval", "mvmt"}

	var names []string
	if *schedName == "all" {
		names = order
	} else {
		for _, n := range strings.Split(*schedName, ",") {
			n = strings.TrimSpace(n)
			if _, ok := factories[n]; !ok {
				fmt.Fprintf(os.Stderr, "mtsim: unknown scheduler %q\n", n)
				os.Exit(2)
			}
			names = append(names, n)
		}
	}

	if *overload != "" {
		factors, err := parseFactors(*overload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtsim: %v\n", err)
			os.Exit(2)
		}
		if *deadline == 0 {
			// The sweep's goodput definition needs a deadline: without one a
			// closed loop never sheds and "goodput" is just throughput.
			*deadline = 25 * time.Millisecond
		}
		os.Exit(runOverloadSweep(names, factories, specs, overloadOptions{
			factors: factors, deadline: *deadline, shedPause: *shedPause,
			repeats: *repeats, workers: *workers,
			csvPath: *csvPath, jsonPath: *jsonPath,
		}))
	}

	pol, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtsim: %v\n", err)
		os.Exit(2)
	}

	if *crashPoint != 0 {
		name := names[0]
		if *schedName == "all" {
			name = "mtdefer"
		}
		runCrashHarness(name, factories[name], specs, *k, *workers, *maxAttempts,
			*seed, *crashPoint, pol, *ckptEvery)
		return
	}

	fmt.Printf("workload: txns=%d ops=%d items=%d readfrac=%.2f hot=%d/%.2f workers=%d k=%d\n",
		*txns, *ops, *items, *readFrac, *hotItems, *hotFrac, *workers, *k)
	for _, name := range names {
		cfg := sim.Config{
			NewScheduler: factories[name],
			Specs:        specs,
			Workers:      *workers,
			MaxAttempts:  *maxAttempts,
			Backoff:      20 * time.Microsecond,
			Deadline:     *deadline,
			ShedPause:    *shedPause,
		}
		if *admitOn {
			cfg.Admit = &admit.Options{}
		}
		if *walDir != "" {
			cfg.WAL = &wal.Options{
				Dir:             filepath.Join(*walDir, name),
				Sync:            pol,
				CheckpointEvery: *ckptEvery,
			}
		}
		rep := sim.Run(cfg)
		fmt.Println(rep)
	}
}

// runCrashHarness drives the in-process crash-point harness: a single
// point when point > 0, the full matrix (every I/O op of a clean run)
// when point < 0. MT-family schedulers additionally get the restart
// phase that traces counter-column assignments for the re-issue check.
func runCrashHarness(name string, factory func(*storage.Store) sched.Scheduler,
	specs []txn.Spec, k, workers, maxAttempts int, seed, point int64,
	pol wal.SyncPolicy, ckptEvery int) {
	cfg := sim.CrashPointConfig{
		Config: sim.Config{
			NewScheduler: factory,
			Specs:        specs,
			Workers:      workers,
			MaxAttempts:  maxAttempts,
			Backoff:      20 * time.Microsecond,
		},
		Seed:            seed,
		Sync:            pol,
		BatchDelay:      200 * time.Microsecond,
		CheckpointEvery: ckptEvery,
	}
	if name == "mt" || name == "mtmono" || name == "mtdefer" {
		n := 8
		if len(specs) < n {
			n = len(specs)
		}
		rs := make([]txn.Spec, n)
		for i := range rs {
			rs[i] = specs[i]
			rs[i].ID = 1_000_000 + i
		}
		cfg.RestartSpecs = rs
		cfg.NewTracedScheduler = func(st *storage.Store, trace func(core.Event)) sched.Scheduler {
			return sched.NewMTStriped(st, mtOptions(name, k, trace))
		}
	}
	if point > 0 {
		cfg.CrashAt = point
		rep := sim.RunCrashPoint(cfg)
		fmt.Printf("%s crashpoint %d: %s\n", name, point, rep)
		if rep.Err() != nil {
			os.Exit(1)
		}
		return
	}
	clean := sim.RunCrashPoint(cfg)
	fmt.Printf("%s clean: %s\n", name, clean)
	if clean.Err() != nil {
		os.Exit(1)
	}
	fails := 0
	for at := int64(1); at <= clean.CleanOps; at++ {
		c := cfg
		c.CrashAt, c.Seed = at, seed+at
		if rep := sim.RunCrashPoint(c); rep.Err() != nil {
			fails++
			fmt.Printf("%s crashpoint %d: %s\n", name, at, rep)
		}
	}
	fmt.Printf("crash matrix: %d points, %d failures\n", clean.CleanOps, fails)
	if fails > 0 {
		os.Exit(1)
	}
}

// mtOptions returns the MT(k) adapter options behind the scheduler
// names mt, mtmono (monotonic encoding) and mtdefer (deferred writes).
func mtOptions(name string, k int, trace func(core.Event)) sched.MTOptions {
	return sched.MTOptions{
		Core: engine.Options{K: k, StarvationAvoidance: true,
			MonotonicEncoding: name == "mtmono", Trace: trace},
		DeferWrites: name == "mtdefer",
	}
}

// reproLines renders the replay header every chaos/partition report
// carries: the effective seeds plus the planned fault schedule, so a
// failing run is reproducible from its log alone.
func reproLines(flagName, planName string, plan fault.Plan, inj *fault.Injector, k, sites, txns int, seed, faultSeed int64) []string {
	lines := []string{
		fmt.Sprintf("repro: mtsim -%s %s -sites %d -k %d -txns %d -seed %d -faultseed %d",
			flagName, planName, sites, k, txns, seed, faultSeed),
	}
	var lastAt int64
	for _, ev := range plan.Events {
		if ev.At > lastAt {
			lastAt = ev.At
		}
	}
	for _, l := range inj.PlannedSchedule(lastAt) {
		lines = append(lines, "  planned: "+l)
	}
	return lines
}

// durableOpts builds the per-site sidecar options for -sitewal runs:
// an in-memory disk per invocation (the sites' crashes are logical, the
// process survives, so MemFS models per-site stable storage exactly).
func durableOpts(siteWAL bool, dir string, faultSeed int64) *dmt.DurableOptions {
	if !siteWAL {
		return nil
	}
	return &dmt.DurableOptions{FS: wal.NewMemFS(faultSeed, 0), Dir: dir}
}

// runChaos executes the workload on DMT(k) under a named fault plan and
// reports the degraded-mode picture: commit rate, unavailability aborts,
// gave-up transactions, injector counters and recovery latency.
func runChaos(specs []txn.Spec, planName string, k, sites, workers, maxAttempts, unavailBudget int, seed, faultSeed int64, siteWAL bool) {
	plan, err := fault.PlanByName(planName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtsim: %v\n", err)
		os.Exit(2)
	}
	if err := plan.Validate(sites); err != nil {
		fmt.Fprintf(os.Stderr, "mtsim: %v\n", err)
		os.Exit(2)
	}
	inj := fault.New(plan, sites, faultSeed)
	var d *sched.DMT
	fmt.Printf("chaos: %s sites=%d seed=%d faultseed=%d\n", plan, sites, seed, faultSeed)
	rep := sim.Run(sim.Config{
		NewScheduler: func(st *storage.Store) sched.Scheduler {
			d = sched.NewDMT(st, dmt.Options{K: k, Sites: sites, Transport: inj,
				Durable: durableOpts(siteWAL, "sitewal", faultSeed)})
			return d
		},
		Specs:              specs,
		Workers:            workers,
		MaxAttempts:        maxAttempts,
		Backoff:            20 * time.Microsecond,
		RuntimeSeed:        seed,
		UnavailableBudget:  unavailBudget,
		UnavailableBackoff: 200 * time.Microsecond,
		FaultStats:         inj.Stats(),
		Repro:              reproLines("chaos", planName, plan, inj, k, sites, len(specs), seed, faultSeed),
	})
	defer d.Cluster().Close()
	fmt.Println(rep)
	for _, line := range rep.Repro {
		fmt.Println(line)
	}
	fmt.Printf("commit-rate=%.3f unavailability-aborts=%d timeouts=%d gaveup=%d\n",
		float64(rep.Committed)/float64(rep.Txns), rep.Unavailable, rep.Timeouts, rep.GaveUp)
	fmt.Printf("cluster: messages=%d lock-retries=%d unavailable-steps=%d\n",
		d.Cluster().Messages(), d.Cluster().LockRetries(), d.Cluster().UnavailableCount())
	lats := d.Cluster().RecoveryLatencies()
	if len(lats) > 0 {
		var sitesWithLat []int
		for s := range lats {
			sitesWithLat = append(sitesWithLat, s)
		}
		sort.Ints(sitesWithLat)
		for _, s := range sitesWithLat {
			fmt.Printf("recovery-latency site %d: %v (recovery to first home commit)\n", s, lats[s])
		}
	}
	if sched := inj.Schedule(); len(sched) > 0 {
		fmt.Printf("fault schedule (%d decisions):\n", len(sched))
		shown := sched
		if len(shown) > 12 {
			shown = shown[:12]
		}
		for _, line := range shown {
			fmt.Println("  " + line)
		}
		if len(sched) > len(shown) {
			fmt.Printf("  ... %d more\n", len(sched)-len(shown))
		}
	}
}

// runPartition is the partition-tolerance A/B: the same workload runs
// twice under the same fault plan and seeds — once fail-fast (a commit
// whose home site is down aborts immediately) and once with degraded-
// mode parked commits — and the tool compares commit availability
// during the degraded windows. Both runs replay the identical fault
// schedule (it is a pure function of the plan and -faultseed), so the
// delta isolates the commit-path policy.
func runPartition(specs []txn.Spec, planName string, k, sites, workers, maxAttempts,
	unavailBudget int, seed, faultSeed int64, siteWAL bool) int {
	plan, err := fault.PlanByName(planName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtsim: %v\n", err)
		return 2
	}
	if err := plan.Validate(sites); err != nil {
		fmt.Fprintf(os.Stderr, "mtsim: %v\n", err)
		return 2
	}
	fmt.Printf("partition A/B: %s sites=%d seed=%d faultseed=%d sitewal=%v\n",
		plan, sites, seed, faultSeed, siteWAL)

	run := func(mode string, park bool) *sim.Report {
		inj := fault.New(plan, sites, faultSeed)
		var d *sched.DMT
		rep := sim.Run(sim.Config{
			NewScheduler: func(st *storage.Store) sched.Scheduler {
				d = sched.NewDMT(st, dmt.Options{K: k, Sites: sites, Transport: inj,
					Durable: durableOpts(siteWAL, "sitewal-"+mode, faultSeed)})
				if park {
					d.SetParking(sched.Parking{
						Capacity: workers,
						Deadline: 300 * time.Millisecond,
						Seed:     seed,
					})
				}
				return d
			},
			Specs:       specs,
			Workers:     workers,
			MaxAttempts: maxAttempts,
			Backoff:     20 * time.Microsecond,
			// Per-op think time gives transactions real duration, so they
			// straddle fault boundaries the way long-lived clients do: a
			// transaction that finished its reads before the crash reaches
			// Commit while its home site is down — the exact window the
			// fail-fast vs parked-commit policies differ on.
			Think:              100 * time.Microsecond,
			RuntimeSeed:        seed,
			UnavailableBudget:  unavailBudget,
			UnavailableBackoff: 200 * time.Microsecond,
			FaultStats:         inj.Stats(),
			Repro:              reproLines("partition", planName, plan, inj, k, sites, len(specs), seed, faultSeed),
		})
		rep.Name = rep.Name + "/" + mode
		d.Cluster().Close()
		fmt.Println(rep)
		return rep
	}

	failfast := run("failfast", false)
	degraded := run("degraded", true)
	for _, line := range degraded.Repro {
		fmt.Println(line)
	}

	avail := func(r *sim.Report) float64 {
		if r.Degraded == nil {
			return 1
		}
		return r.Degraded.Availability()
	}
	af, ad := avail(failfast), avail(degraded)
	fmt.Printf("commit availability during degraded windows: fail-fast=%.3f degraded=%.3f delta=%+.3f\n",
		af, ad, ad-af)
	fmt.Printf("committed: fail-fast=%d/%d degraded=%d/%d\n",
		failfast.Committed, failfast.Txns, degraded.Committed, degraded.Txns)
	return 0
}
