package obs

import (
	"encoding/json"

	"phelps/internal/fsio"
)

// BenchReportSchema versions the BENCH_report.json layout; bump it when a
// field changes meaning so trajectory-diffing tools can tell.
//
// Schema 6 added the explore.* figures written by `phelpsreport -explore`
// (model-triaged design-space search): "explore_frontier" (the predicted
// Pareto frontier with measured ground truth per config) and
// "explore_summary" (anchor/frontier/cell accounting, MAPE, Spearman, and
// throughput rates). Versions 2–5 were skipped so BENCH_report.json and
// BENCH_host.json share one schema number from 6 on.
const BenchReportSchema = 6

// BenchReport is the machine-readable artifact cmd/phelpsreport writes
// alongside its text tables (per-figure rows plus geomean speedups), so the
// perf trajectory is diffable across PRs. The format is documented in
// EXPERIMENTS.md.
type BenchReport struct {
	Schema   int                `json:"schema"`
	Quick    bool               `json:"quick"`
	Figures  []Figure           `json:"figures"`
	Geomeans map[string]float64 `json:"geomean_speedups,omitempty"`
}

// Figure is one table/figure of the report, as loosely-typed rows (each row
// is a column-name -> value map; columns per figure are listed in
// EXPERIMENTS.md).
type Figure struct {
	Name string           `json:"name"`
	Rows []map[string]any `json:"rows"`
}

// NewBenchReport returns an empty report.
func NewBenchReport(quick bool) *BenchReport {
	return &BenchReport{Schema: BenchReportSchema, Quick: quick, Geomeans: make(map[string]float64)}
}

// AddFigure appends one figure's rows.
func (b *BenchReport) AddFigure(name string, rows []map[string]any) {
	b.Figures = append(b.Figures, Figure{Name: name, Rows: rows})
}

// AddGeomean records a suite-level geomean speedup (e.g. "gap.phelps").
func (b *BenchReport) AddGeomean(name string, v float64) {
	b.Geomeans[name] = v
}

// WriteFile writes the report as indented JSON to path.
func (b *BenchReport) WriteFile(path string) error { return writeJSON(path, b) }

// writeJSON replaces path with v as indented JSON through fsio.WriteAtomic,
// so an interrupted run (phelpsreport -explore read-merge-writes the
// committed BENCH_host.json) leaves the old file, not a truncated one.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return fsio.WriteAtomic(fsio.OS, path, append(data, '\n'))
}
