package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"time"

	"phelps/internal/obs"
	"phelps/internal/prog"
	"phelps/internal/sim"
)

// Cell sets of the batch workloads and the daemon's sampled jobs.
var (
	matrixConfigs  = []string{sim.CfgBase, sim.CfgPhelps, sim.CfgBR}
	chaseConfigs   = []string{sim.CfgBase, sim.CfgPhelps}
	sampledConfigs = []string{sim.CfgBase, sim.CfgPhelps, sim.CfgBR}
)

// quickSuites is the quick GAP+astar suite and the quick SPEC-like suite.
func quickSuites() []sim.Spec { return append(sim.GapSpecs(true), sim.SpecCPUSpecs(true)...) }

// sampledSpecs are the full-size workloads daemon_mix runs sampled.
func sampledSpecs() []sim.Spec { return append(sim.GapSpecs(false), sim.SpecCPUSpecs(false)...) }

// A batch run repeats its set-up at least minSetupReps times and for at
// least minSetupTime, at most maxSetupReps times; setup_s is the median.
const (
	minSetupReps = 5
	maxSetupReps = 50
	minSetupTime = time.Second
)

func runMatrixQuick(env *runEnv) (*outcome, error) {
	return runBatch(env, quickSuites(), matrixConfigs, "q", true)
}

func runChaseMem(env *runEnv) (*outcome, error) {
	return runBatch(env, sim.MicroSpecs(false), chaseConfigs, "m", false)
}

// batchCell is one (workload, configuration) cell of a batch workload.
type batchCell struct {
	spec  sim.Spec
	mode  string // configuration name
	label string // workload/config
	key   string // expectation key
	cfg   sim.Config
}

// cellTrace is what a traced pass records about one cell.
type cellTrace struct {
	c             *batchCell
	selfNs        float64 // cell span minus its prog.build child span
	buildNs       float64
	res           sim.Result
	stale, posted uint64
	alloc         uint64
}

// runBatch drives a batch workload: one goroutine runs the cells one at a
// time through sim.RunConfigCellCtx, in a seeded order reshuffled every
// pass, and makes whole passes while another fits in the run's time.
func runBatch(env *runEnv, specs []sim.Spec, configs []string, kind string, quick bool) (*outcome, error) {
	out := &outcome{}
	ctx := context.Background()

	// Set-up: load the expectations, build and hash each workload once, and
	// materialize the configurations.
	var setups []float64
	var cells []*batchCell
	var want *expectations
	var setupCal calibrator
	setupStart := time.Now()
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || time.Since(setupStart) < minSetupTime); rep++ {
		debug.FreeOSMemory() // the sample must not share a GC cycle with the last set-up
		setupCal.force()
		t0 := time.Now()
		w, err := loadExpectations(env.root)
		if err != nil {
			return nil, err
		}
		want = w
		cells = cells[:0]
		for _, s := range specs {
			if err := want.checkHash(quick, s); err != nil && rep == 0 {
				out.attempted++
				out.fail("%v", err)
			}
			for _, c := range configs {
				cfg, err := sim.ConfigByName(c, s.Epoch)
				if err != nil {
					return nil, err
				}
				cells = append(cells, &batchCell{spec: s, mode: c, label: s.Name + "/" + c, key: cellKey(kind, s.Name, c), cfg: cfg})
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	debug.FreeOSMemory()
	setupCal.force()

	var rt replayTotals
	if env.tr != nil {
		rt = replayLayers(env.tr, specs)
	}

	opt := sim.MatrixOptions{CrashDir: filepath.Join(env.out, "crashes")}
	plain := make([][]float64, len(cells))  // untraced cell seconds, per cell
	traced := make([][]float64, len(cells)) // traced cell seconds, per cell
	// sampleAfter[i][k] is the index of the first calibration sample taken
	// after plain[i][k]; the one before it is the last sample before.
	sampleAfter := make([][]int, len(cells))
	var traces []cellTrace
	var cal calibrator
	start := time.Now()
	for pass := 0; another(env, pass, start); pass++ {
		tracePass := env.tr != nil && pass%2 == 1
		pid := 0
		if tracePass {
			pid = env.tr.start("pass", fmt.Sprint(pass), 0)
		}
		for _, i := range env.rng.Perm(len(cells)) {
			c := cells[i]
			out.attempted++
			// Before each cell, untimed: a GC that also returns free memory
			// to the OS, so no cell pays for another's garbage and the peak
			// RSS does not depend on when the scavenger last ran; then, with
			// no GC cycle left running, a calibration sample when one is due.
			debug.FreeOSMemory()
			cal.maybe()
			if !tracePass {
				t0 := time.Now()
				res, err := sim.RunConfigCellCtx(ctx, c.spec, c.label, c.cfg, opt)
				plain[i] = append(plain[i], time.Since(t0).Seconds())
				sampleAfter[i] = append(sampleAfter[i], len(cal.samples))
				if cerr := want.check(c.key, &res, err); cerr != nil {
					out.fail("%v", cerr)
				}
				continue
			}
			ct, err := runTracedCell(ctx, env.tr, pid, c, opt)
			traced[i] = append(traced[i], (ct.selfNs+ct.buildNs)/1e9)
			if cerr := want.check(c.key, &ct.res, err); cerr != nil {
				out.fail("%v", cerr)
			}
			traces = append(traces, ct)
		}
		env.tr.end(pid)
	}

	untracedRate, untracedJobs := passRate(cells, plain, want)
	if env.tr == nil {
		// Each cell's time is scaled by the samples just before and after
		// it: one factor for the whole run tracked the host's speed worse.
		debug.FreeOSMemory()
		cal.force() // the sample after the last cell
		scaled := make([][]float64, len(cells))
		for i, xs := range plain {
			for k, x := range xs {
				scaled[i] = append(scaled[i], x/cal.around(sampleAfter[i][k]))
			}
		}
		scaledRate, scaledJobs := passRate(cells, scaled, want)
		ms, err := endToEndMetrics(scaledRate, untracedRate, scaledJobs, untracedJobs, setups, &setupCal)
		if err != nil {
			return nil, err
		}
		out.metrics = ms
		type cellTimes struct {
			Retired uint64    `json:"retired"`
			Secs    []float64 `json:"secs"`
		}
		times := map[string]cellTimes{}
		for i, c := range cells {
			times[c.label] = cellTimes{want.cells[c.key].Retired, plain[i]}
		}
		out.extra = map[string]any{"passes": len(plain[0]), "setups_s": setups, "cells": times,
			"calib_s": cal.samples, "setup_calib_s": setupCal.samples}
		return out, nil
	}

	l := newLedger()
	rt.put(l)
	putCellTraces(l, traces, rt)
	tracedRate, _ := passRate(cells, traced, want)
	l.set("trace.overhead_pct", (ratio(untracedRate, tracedRate)-1)*100)
	out.metrics = l.metrics()
	out.spans = env.tr.all()
	out.extra = map[string]any{"untraced_sim_inst_per_s": untracedRate, "traced_sim_inst_per_s": tracedRate}
	return out, nil
}

// passRate turns per-cell times into the rate of one whole pass: each
// cell's median time over the run's passes, summed. Medians keep one slow
// cell in one pass from moving the figure; every pass runs every cell, so
// the sum is a pass time. It returns main-thread instructions per second and
// cells per second.
func passRate(cells []*batchCell, times [][]float64, want *expectations) (instPerS, cellsPerS float64) {
	var secs, insts float64
	for i, c := range cells {
		if len(times[i]) == 0 {
			return 0, 0
		}
		secs += median(times[i])
		insts += float64(want.cells[c.key].Retired)
	}
	return ratio(insts, secs), ratio(float64(len(cells)), secs)
}

// runTracedCell runs one cell with spans around the cell and its workload
// build, a counter registry attached (clock.posted and clock.stale), and the
// heap allocation delta.
func runTracedCell(ctx context.Context, tr *tracer, parent int, c *batchCell, opt sim.MatrixOptions) (cellTrace, error) {
	ct := cellTrace{c: c}
	cid := tr.start("cell", c.label, parent)
	spec := c.spec
	build := spec.Build
	spec.Build = func() *prog.Workload {
		id := tr.start("prog.build", spec.Name, cid)
		w := build()
		ct.buildNs += tr.end(id)
		return w
	}
	cfg := c.cfg
	col := obs.NewCollector(0)
	cfg.Obs = col
	a0 := heapAllocBytes()
	res, err := sim.RunConfigCellCtx(ctx, spec, c.label, cfg, opt)
	ct.alloc = heapAllocBytes() - a0
	ct.selfNs = tr.end(cid) - ct.buildNs
	ct.res = res
	ct.stale, _ = col.Registry.CounterValue("clock.stale")
	ct.posted, _ = col.Registry.CounterValue("clock.posted")
	return ct, err
}

// putCellTraces derives the sim, clock, cache, core, runahead and cpu
// metrics from the traced cells.
func putCellTraces(l *ledger, traces []cellTrace, rt replayTotals) {
	type acc struct{ ns, insts float64 }
	byMode := map[string]*acc{}
	byCell := map[[2]string]float64{} // {workload, mode} -> self ns summed over traced passes
	var buildNs, builds, selfNs, stepped, alloc, retired float64
	var cycles, skipped, stale, posted, l1a, l1m, pfi, pfu float64
	var htRet, phRet, qc, qu, raC, raS float64
	for _, t := range traces {
		r := &t.res
		a := byMode[t.c.mode]
		if a == nil {
			a = &acc{}
			byMode[t.c.mode] = a
		}
		a.ns += t.selfNs
		a.insts += float64(r.Retired)
		byCell[[2]string{t.c.spec.Name, t.c.mode}] += t.selfNs
		buildNs += t.buildNs
		builds++
		selfNs += t.selfNs
		stepped += float64(r.Cycles - r.SkippedCycles)
		alloc += float64(t.alloc)
		retired += float64(r.Retired)
		cycles += float64(r.Cycles)
		skipped += float64(r.SkippedCycles)
		stale += float64(t.stale)
		posted += float64(t.posted)
		l1a += float64(r.Cache.L1DAccesses)
		l1m += float64(r.Cache.L1DMisses)
		pfi += float64(r.Cache.PrefIssued)
		pfu += float64(r.Cache.PrefUseful)
		switch t.c.mode {
		case sim.CfgPhelps:
			htRet += float64(r.Phelps.HTRetired)
			phRet += float64(r.Retired)
			qc += float64(r.Phelps.QueueConsumed)
			qu += float64(r.Phelps.QueueUntimely)
		case sim.CfgBR:
			raC += float64(r.Runahead.QueueConsumed)
			raS += float64(r.Runahead.QueueStale)
		}
	}
	l.set("prog.build_ms", ratio(buildNs, builds)/1e6)
	l.set("cache.l1d_miss_ratio", ratio(l1m, l1a))
	l.set("cache.prefetch_useful_ratio", ratio(pfu, pfi))
	l.set("clock.skip_ratio", ratio(skipped, cycles))
	l.set("clock.stale_ratio", ratio(stale, posted))
	l.set("sim.ns_per_stepped_cycle", ratio(selfNs, stepped))
	l.set("sim.alloc_bytes_per_inst", ratio(alloc, retired))
	for _, mode := range []string{sim.CfgBase, sim.CfgPhelps, sim.CfgBR} {
		if a := byMode[mode]; a != nil {
			l.set("sim."+mode+".ns_per_inst", ratio(a.ns, a.insts))
		}
	}
	if a := byMode[sim.CfgBase]; a != nil {
		l.set("cpu.residual_ns_per_inst", ratio(a.ns, a.insts)-rt.perInst())
	}
	// Helper-engine and chain cost: what a mode's cell costs beyond the
	// same workload's base cell, per main-thread instruction.
	extra := func(mode string) (float64, bool) {
		var ns, insts float64
		for _, t := range traces {
			if t.c.mode == mode {
				insts += float64(t.res.Retired)
			}
		}
		if insts == 0 {
			return 0, false
		}
		for cell, v := range byCell {
			if cell[1] == mode {
				ns += v - byCell[[2]string{cell[0], sim.CfgBase}]
			}
		}
		return ns / insts, true
	}
	if v, ok := extra(sim.CfgPhelps); ok {
		l.set("core.helper_ns_per_inst", v)
		l.set("core.ht_insts_per_main_inst", ratio(htRet, phRet))
		l.set("core.queue_timely_ratio", ratio(qc, qc+qu))
	}
	if v, ok := extra(sim.CfgBR); ok {
		l.set("runahead.chain_ns_per_inst", v)
		l.set("runahead.queue_useful_ratio", ratio(raC, raC+raS))
	}
}
