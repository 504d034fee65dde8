package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// OverloadRow is one point of a goodput-vs-offered-load curve: a
// (scheduler, admission on/off, load factor) cell with its measured
// outcome. cmd/mtsim -overload emits these; the writers below render
// them so a sweep is reproducible and diffable.
type OverloadRow struct {
	Sched        string  `json:"sched"`
	Admit        bool    `json:"admit"`
	Factor       float64 `json:"factor"`
	Offered      int     `json:"offered"`
	Workers      int     `json:"workers"`
	Committed    int64   `json:"committed"`
	Shed         int64   `json:"shed"`
	DeadlineMiss int64   `json:"deadline_miss"`
	GaveUp       int64   `json:"gave_up"`
	AbortRate    float64 `json:"abort_rate"`
	Goodput      float64 `json:"goodput_tps"`
	WallMS       float64 `json:"wall_ms"`
}

// overloadHeader is the CSV column order (kept in sync with csvRecord).
var overloadHeader = []string{
	"sched", "admit", "factor", "offered", "workers",
	"committed", "shed", "deadline_miss", "gave_up",
	"abort_rate", "goodput_tps", "wall_ms",
}

func (r OverloadRow) csvRecord() []string {
	return []string{
		r.Sched, fmt.Sprint(r.Admit), fmt.Sprintf("%g", r.Factor),
		fmt.Sprint(r.Offered), fmt.Sprint(r.Workers),
		fmt.Sprint(r.Committed), fmt.Sprint(r.Shed),
		fmt.Sprint(r.DeadlineMiss), fmt.Sprint(r.GaveUp),
		fmt.Sprintf("%.4f", r.AbortRate),
		fmt.Sprintf("%.1f", r.Goodput), fmt.Sprintf("%.2f", r.WallMS),
	}
}

// WriteOverloadCSV renders the rows as CSV with a header line.
func WriteOverloadCSV(w io.Writer, rows []OverloadRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(overloadHeader); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r.csvRecord()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// OverloadRetention is one curve's verdict: where its saturation knee
// sits and what fraction of the knee's goodput survives at the final
// (highest) load factor. 1.0 means the system fully holds its best
// goodput under overload; values near 0 mean congestion collapse.
type OverloadRetention struct {
	Sched      string  `json:"sched"`
	Admit      bool    `json:"admit"`
	KneeFactor float64 `json:"knee_factor"`
	KneeTPS    float64 `json:"knee_tps"`
	FinalTPS   float64 `json:"final_tps"`
	Retention  float64 `json:"retention"`
}

// OverloadSummary is the JSON artifact an overload sweep produces
// (BENCH_N.json): the raw curve rows plus the per-curve retention
// verdicts.
type OverloadSummary struct {
	Name       string              `json:"name"`
	Generated  string              `json:"generated,omitempty"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	Notes      string              `json:"notes,omitempty"`
	Rows       []OverloadRow       `json:"rows"`
	Retention  []OverloadRetention `json:"retention"`
}

// ComputeRetention derives one retention verdict per (sched, admit)
// curve present in the rows, preserving first-seen curve order. Rows
// within a curve are assumed to be in sweep (ascending-factor) order,
// as RunOverload emits them.
func ComputeRetention(rows []OverloadRow) []OverloadRetention {
	type key struct {
		sched string
		admit bool
	}
	idx := make(map[key]int)
	var out []OverloadRetention
	knee := make(map[key]OverloadRow)
	for _, r := range rows {
		k := key{r.Sched, r.Admit}
		if _, ok := idx[k]; !ok {
			idx[k] = len(out)
			out = append(out, OverloadRetention{Sched: r.Sched, Admit: r.Admit})
			knee[k] = r
		}
		if r.Goodput > knee[k].Goodput {
			knee[k] = r
		}
		o := &out[idx[k]]
		o.KneeFactor, o.KneeTPS = knee[k].Factor, knee[k].Goodput
		o.FinalTPS = r.Goodput
		if o.KneeTPS > 0 {
			o.Retention = o.FinalTPS / o.KneeTPS
		}
	}
	return out
}

// WriteOverloadJSON renders the summary as indented JSON.
func WriteOverloadJSON(w io.Writer, s OverloadSummary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
