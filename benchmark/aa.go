package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA runs two interleaved sets (A, B) of n runs per workload, each
// run a fresh process of this binary with seeds 1..n, and prints for
// every end-to-end metric both medians, both inter-quartile ranges as a
// share of the median, and the worsening from A to B over the bound.
func runAA(defs []workloadDef, n int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Println("| workload | metric | median A | median B | IQR A | IQR B | max IQR / bound | worsening / bound | failed |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, d := range defs {
		var sets [2][]result
		for seed := 1; seed <= n; seed++ {
			for s := range sets {
				cmd := exec.Command(self, "-workload", d.name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d: %w", d.name, seed, err)
				}
				r, err := lastResult(stdout.Bytes())
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", d.name, seed, err)
				}
				sets[s] = append(sets[s], r)
			}
		}
		for _, md := range endToEnd {
			var med, iqr [2]float64
			var failed int64
			for s := range sets {
				vals := make([]float64, 0, n)
				for _, r := range sets[s] {
					vals = append(vals, r.Metrics[md.name].Value)
					failed += r.Failed
				}
				med[s], iqr[s] = median(vals), spread(vals)
			}
			worse := (med[1] - med[0]) / med[0]
			if md.higher {
				worse = -worse
			}
			fmt.Printf("| %s | %s (%s) | %.4f | %.4f | %.2f%% | %.2f%% | %.2f | %.2f | %d |\n",
				d.name, md.name, md.unit, med[0], med[1], 100*iqr[0], 100*iqr[1],
				math.Max(iqr[0], iqr[1])/md.bound, worse/md.bound, failed)
		}
	}
	return nil
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method).
func spread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		j = max(1, min(j, len(s)-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

func lastResult(stdout []byte) (result, error) {
	last := bytes.TrimSpace(stdout)
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("parsing result line: %w", err)
	}
	if !r.Correct {
		return r, fmt.Errorf("run reported incorrect outputs")
	}
	return r, nil
}
