// Command phelpsreport regenerates the paper's tables and figures on the
// scaled-down workload suite and prints them in paper-style rows. This is
// the binary behind EXPERIMENTS.md. Alongside the text output it writes a
// machine-readable BENCH_report.json (per-figure rows plus geomean
// speedups; see EXPERIMENTS.md for the schema).
//
//	phelpsreport -all          # everything (several minutes)
//	phelpsreport -fig 11       # just Fig. 11
//	phelpsreport -tables       # Tables II and III
//	phelpsreport -quick        # everything at reduced sizes
//	phelpsreport -host         # host-performance suite -> BENCH_host.json
//	phelpsreport -explore      # model-triaged design-space search
//	phelpsreport -explore -exhaustive   # ...plus full-sweep validation
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"phelps/internal/core"
	"phelps/internal/obs"
	"phelps/internal/sim"
	"phelps/internal/stats"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		fig      = flag.Int("fig", 0, "run one figure (11, 12, 13, 14, 15)")
		tables   = flag.Bool("tables", false, "print Tables II and III")
		quick    = flag.Bool("quick", false, "reduced workload sizes (alone, implies -all)")
		jsonPath = flag.String("json", "BENCH_report.json", "path for the JSON report artifact")
		host     = flag.Bool("host", false, "measure host performance (sim-inst/s, allocs/sim-inst)")
		hostPath = flag.String("hostjson", "BENCH_host.json", "path for the host-performance artifact")
		explore  = flag.Bool("explore", false, "model-triaged design-space search (learned fast path)")
		exhaust  = flag.Bool("exhaustive", false, "with -explore: also cycle-simulate the whole space for validation")
		anchors  = flag.Int("anchors", 0, "with -explore: cycle-simulated training configs (0 = auto)")
	)
	flag.Parse()
	if *host {
		if err := runHostBench(*hostPath); err != nil {
			fmt.Fprintf(os.Stderr, "host bench: %v\n", err)
			os.Exit(1)
		}
		if !*all && *fig == 0 && !*tables && !*quick && !*explore {
			return
		}
	}
	if *explore {
		if err := runExploreReport(*jsonPath, *hostPath, *exhaust, *anchors); err != nil {
			fmt.Fprintf(os.Stderr, "explore: %v\n", err)
			os.Exit(1)
		}
		if !*all && *fig == 0 && !*tables && !*quick {
			return
		}
	}
	if *quick && *fig == 0 && !*tables {
		*all = true
	}
	if !*all && *fig == 0 && !*tables {
		flag.Usage()
		os.Exit(2)
	}

	report := obs.NewBenchReport(*quick)
	start := time.Now()
	if *tables || *all {
		fmt.Println(core.FormatCostTable())
		fmt.Println(sim.FormatTableIII())
	}
	if *all || *fig == 11 {
		rows, err := sim.Fig11(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig11: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(sim.FormatFig11(rows))
		report.AddFigure("fig11", fig11Rows(rows))
	}
	if *all || *fig == 12 || *fig == 13 || *fig == 14 {
		gap := sim.GapSpecs(*quick)
		spec := sim.SpecCPUSpecs(*quick)
		var gapNames, specNames []string
		for _, s := range gap {
			gapNames = append(gapNames, s.Name)
		}
		for _, s := range spec {
			specNames = append(specNames, s.Name)
		}
		fmt.Println("running the GAP+astar matrix...")
		gapM, gapErr := sim.RunMatrixCtx(context.Background(), gap, []string{
			sim.CfgBase, sim.CfgPerfect, sim.CfgPhelps, sim.CfgPhelpsNoStore,
			sim.CfgBR, sim.CfgBR12w, sim.CfgHalf,
		}, sim.MatrixOptions{})
		fmt.Println("running the SPEC-like matrix...")
		specM, specErr := sim.RunMatrixCtx(context.Background(), spec, []string{
			sim.CfgBase, sim.CfgPerfect, sim.CfgPhelps, sim.CfgBR, sim.CfgBR12w, sim.CfgHalf,
		}, sim.MatrixOptions{})
		// Failed cells are reported but don't abort the report: the matrix
		// still carries their metrics, and a partial figure beats none.
		if gapErr != nil {
			fmt.Printf("MATRIX FAILURES (gap):\n%v\n", gapErr)
		}
		if specErr != nil {
			fmt.Printf("MATRIX FAILURES (spec):\n%v\n", specErr)
		}
		if *all || *fig == 12 {
			fmt.Println(sim.FormatFig12a(gapM, gapNames))
			fmt.Println(sim.FormatFig12a(specM, specNames))
			fmt.Println(sim.FormatFig12b(gapM, gapNames))
			report.AddFigure("fig12a.gap", speedupRows(gapM, gapNames))
			report.AddFigure("fig12a.spec", speedupRows(specM, specNames))
			report.AddFigure("fig12b", fig12bRows(gapM, gapNames))
		}
		if *all || *fig == 13 {
			fmt.Println(sim.FormatFig13a(gapM, gapNames))
			fmt.Println(sim.FormatFig13b(gapM, gapNames))
			fmt.Println(sim.FormatFig13c(gapM, gapNames))
			fmt.Println(sim.FormatFig13c(specM, specNames))
			report.AddFigure("fig13a", fig13aRows(gapM, gapNames))
			report.AddFigure("fig13b", fig13bRows(gapM, gapNames))
			report.AddFigure("fig13c.gap", fig13cRows(gapM, gapNames))
			report.AddFigure("fig13c.spec", fig13cRows(specM, specNames))
		}
		if *all || *fig == 14 {
			fmt.Println(sim.FormatFig14(gapM, gapNames))
			fmt.Println(sim.FormatFig14(specM, specNames))
			report.AddFigure("fig14.gap", fig14Rows(gapM, gapNames))
			report.AddFigure("fig14.spec", fig14Rows(specM, specNames))
		}
		addGeomeans(report, "gap", gapM, gapNames,
			[]string{sim.CfgPerfect, sim.CfgPhelps, sim.CfgPhelpsNoStore, sim.CfgBR, sim.CfgBR12w, sim.CfgHalf})
		addGeomeans(report, "spec", specM, specNames,
			[]string{sim.CfgPerfect, sim.CfgPhelps, sim.CfgBR, sim.CfgBR12w, sim.CfgHalf})
	}
	if *all || *fig == 15 {
		aRows, err := sim.Fig15a(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig15a: %v\n", err)
			os.Exit(1)
		}
		bRows := sim.Fig15b(*quick)
		fmt.Println(sim.FormatFig15a(aRows))
		fmt.Println(sim.FormatFig15b(bRows))
		report.AddFigure("fig15a", fig15aRows(aRows))
		report.AddFigure("fig15b", fig15bRows(bRows))
	}
	if len(report.Figures) > 0 {
		if err := report.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	fmt.Printf("report generated in %s\n", time.Since(start).Round(time.Second))
}

// addGeomeans records geomean speedups over the suite as "<suite>.<config>".
func addGeomeans(report *obs.BenchReport, suite string, m sim.Matrix, names, configs []string) {
	for _, c := range configs {
		var sp []float64
		for _, w := range names {
			sp = append(sp, m.Speedup(w, c))
		}
		report.AddGeomean(suite+"."+c, stats.GeoMean(sp))
	}
}

func fig11Rows(rows []sim.Fig11Row) []map[string]any {
	out := make([]map[string]any, 0, len(rows))
	for _, r := range rows {
		out = append(out, map[string]any{"name": r.Name, "speedup": r.Speedup, "mpki": r.MPKI})
	}
	return out
}

func speedupRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		out = append(out, map[string]any{
			"workload": w,
			"perfBP":   m.Speedup(w, sim.CfgPerfect),
			"phelps":   m.Speedup(w, sim.CfgPhelps),
			"br":       m.Speedup(w, sim.CfgBR),
			"br-12w":   m.Speedup(w, sim.CfgBR12w),
		})
	}
	return out
}

func fig12bRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		out = append(out, map[string]any{
			"workload":       w,
			"with_stores":    m.Speedup(w, sim.CfgPhelps),
			"without_stores": m.Speedup(w, sim.CfgPhelpsNoStore),
		})
	}
	return out
}

func fig13aRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		baseR, phR := m[w][sim.CfgBase], m[w][sim.CfgPhelps]
		base, ph := baseR.MPKI(), phR.MPKI()
		red := 0.0
		if base > 0 {
			red = (base - ph) / base * 100
		}
		out = append(out, map[string]any{
			"workload": w, "base_mpki": base, "phelps_mpki": ph, "reduction_pct": red,
		})
	}
	return out
}

func fig13bRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		r := m[w][sim.CfgPhelps]
		ratio := 0.0
		if r.Retired > 0 {
			ratio = float64(r.Phelps.HTRetired) / float64(r.Retired) * 100
		}
		out = append(out, map[string]any{"workload": w, "ht_per_100_mt": ratio})
	}
	return out
}

func fig13cRows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		s := m.Speedup(w, sim.CfgHalf)
		slow := 0.0
		if s > 0 {
			slow = (1/s - 1) * 100
		}
		out = append(out, map[string]any{"workload": w, "slowdown_pct": slow})
	}
	return out
}

func fig14Rows(m sim.Matrix, names []string) []map[string]any {
	out := make([]map[string]any, 0, len(names))
	for _, w := range names {
		r := m[w][sim.CfgPhelps]
		base := m[w][sim.CfgBase]
		elim := int64(base.Mispredicts) - int64(r.Mispredicts)
		if elim < 0 {
			elim = 0
		}
		residual := map[string]uint64{}
		for c := core.Category(0); c < core.NumCategories; c++ {
			if n := r.Phelps.Categories[c]; n > 0 {
				residual[c.String()] = n
			}
		}
		out = append(out, map[string]any{
			"workload": w, "base_mpki": base.MPKI(), "eliminated": elim, "residual": residual,
		})
	}
	return out
}

func fig15aRows(rows []sim.Fig15aRow) []map[string]any {
	out := make([]map[string]any, 0, len(rows))
	for _, r := range rows {
		out = append(out, map[string]any{
			"workload": r.Workload, "rob": r.ROB, "depth": r.Depth, "speedup": r.Speedup,
		})
	}
	return out
}

func fig15bRows(rows []sim.Fig15bRow) []map[string]any {
	out := make([]map[string]any, 0, len(rows))
	for _, r := range rows {
		out = append(out, map[string]any{
			"input": r.Input, "speedup": r.Speedup, "mpki_reduction_pct": r.MPKIRed,
		})
	}
	return out
}
