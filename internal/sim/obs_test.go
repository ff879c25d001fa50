package sim

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"phelps/internal/obs"
	"phelps/internal/prog"
)

// TestObsCountersMatchResult is the acceptance check for the registry: the
// counter views must agree exactly with the legacy Result fields at the end
// of an end-to-end Phelps run.
func TestObsCountersMatchResult(t *testing.T) {
	coll := obs.NewCollector(0)
	cfg := PhelpsConfig(50_000)
	cfg.Obs = coll
	res := mustRun(t, prog.DelinquentLoop(50000, 50, 1), cfg)

	snap := coll.Registry.Snapshot()
	for name, want := range map[string]uint64{
		"core.main.cycles":           res.Cycles,
		"core.main.retired":          res.Retired,
		"core.main.cond_branches":    res.CondBranches,
		"core.main.mispredicts":      res.Mispredicts,
		"core.main.queue_preds":      res.QueuePreds,
		"core.main.queue_misps":      res.QueueMisps,
		"cache.l1d.misses":           res.Cache.L1DMisses,
		"cache.l1i.misses":           res.Cache.L1IMisses,
		"cache.l2.misses":            res.Cache.L2Misses,
		"cache.l3.misses":            res.Cache.L3Misses,
		"phelps.ctrl.triggers":       res.Phelps.Triggers,
		"phelps.ctrl.ht_retired":     res.Phelps.HTRetired,
		"phelps.ctrl.queue_consumed": res.Phelps.QueueConsumed,
	} {
		got, ok := snap.Counters[name]
		if !ok {
			t.Errorf("counter %s not registered", name)
			continue
		}
		if got != want {
			t.Errorf("counter %s = %d, legacy Result field = %d", name, got, want)
		}
	}
	if snap.Counters["phelps.ctrl.triggers"] == 0 {
		t.Error("phelps never triggered; counter comparison is vacuous")
	}
	if _, ok := snap.Counters["bpred.tage-sc-l.lookups"]; !ok {
		t.Errorf("predictor counters not registered; have %v", coll.Registry.CounterNames())
	}
}

func TestObsIntervalSeries(t *testing.T) {
	coll := obs.NewCollector(2000)
	cfg := PhelpsConfig(20_000)
	cfg.Obs = coll
	res := mustRun(t, prog.DelinquentLoop(30000, 50, 1), cfg)
	series := coll.Series()
	if len(series) < 5 {
		t.Fatalf("got %d samples for a %d-cycle run at interval 2000", len(series), res.Cycles)
	}
	last := series[len(series)-1]
	if last.Cycle != res.Cycles || last.Retired != res.Retired {
		t.Errorf("final sample (%d cycles, %d retired) != run totals (%d, %d)",
			last.Cycle, last.Retired, res.Cycles, res.Retired)
	}
	for i := 1; i < len(series); i++ {
		if series[i].Cycle <= series[i-1].Cycle {
			t.Fatalf("sample cycles not increasing: %d then %d", series[i-1].Cycle, series[i].Cycle)
		}
	}
	// Phelps deploys partway through the run: the time series must show
	// helper threads becoming active in some interval.
	sawHT := false
	for _, s := range series {
		if s.ActiveHTs > 0 {
			sawHT = true
		}
	}
	if res.Phelps.Triggers > 0 && !sawHT {
		t.Error("run triggered helper threads but no interval sampled them active")
	}
}

func TestObsKonataTraceFromRun(t *testing.T) {
	var buf bytes.Buffer
	coll := obs.NewCollector(0)
	coll.Trace = obs.NewKonataWriter(&buf)
	cfg := DefaultConfig()
	cfg.MaxInsts = 2000
	cfg.Obs = coll
	if _, err := Run(prog.DelinquentLoop(5000, 50, 1), cfg); err != nil {
		t.Fatal(err)
	}
	if err := coll.Trace.Flush(); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.HasPrefix(out, "Kanata\t0004\n") {
		t.Fatalf("missing Kanata header:\n%.200s", out)
	}
	var retires, flushes, fetches int
	for _, l := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(l, "I\t"):
			fetches++
		case strings.HasPrefix(l, "R\t"):
			if strings.HasSuffix(l, "\t0") {
				retires++
			} else {
				flushes++
			}
		}
	}
	if retires < 2000 {
		t.Errorf("trace has %d retire events for a %d-inst run", retires, 2000)
	}
	if fetches < retires {
		t.Errorf("trace has %d fetches < %d retires", fetches, retires)
	}
	// Every fetched instruction must be accounted for: retired or flushed.
	if fetches != retires+flushes {
		t.Errorf("fetches %d != retires %d + flushes %d", fetches, retires, flushes)
	}
}

// TestRunTimeoutIsGraceful is the satellite check: exhausting MaxCycles
// produces an ErrLivelock-wrapped error plus a Result that still carries the
// partial stats.
func TestRunTimeoutIsGraceful(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 500
	res, err := Run(prog.DelinquentLoop(50000, 50, 1), cfg)
	if !res.TimedOut {
		t.Fatal("run should have timed out at 500 cycles")
	}
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("err = %v, want ErrLivelock", err)
	}
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("error should carry the cycle bound: %v", err)
	}
	if res.Halted {
		t.Error("timed-out run reported Halted")
	}
	if res.Cycles == 0 {
		t.Error("timed-out run carries no partial stats")
	}
}

// TestRunConsumedWorkload pins the double-run contract: a Workload's memory
// image is consumed by the first Run, and a second Run on the same value is
// an ErrConsumed error instead of a silently wrong simulation.
func TestRunConsumedWorkload(t *testing.T) {
	w := prog.DelinquentLoop(5000, 50, 1)
	if _, err := Run(w, DefaultConfig()); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := Run(w, DefaultConfig()); !errors.Is(err, ErrConsumed) {
		t.Fatalf("second run err = %v, want ErrConsumed", err)
	}
}

// TestRunMatrixParallelMatchesSerial is the acceptance check for the
// parallel matrix: the bounded worker pool must produce results identical
// to running each (workload, config) cell serially.
func TestRunMatrixParallelMatchesSerial(t *testing.T) {
	specs := []Spec{
		{Name: "dl", Build: func() *prog.Workload { return prog.DelinquentLoop(8000, 50, 1) }, Epoch: 4000},
		{Name: "gp", Build: func() *prog.Workload { return prog.GuardedPair(8000, 24, 3) }, Epoch: 4000},
		{Name: "nl", Build: func() *prog.Workload { return prog.NestedLoop(4000, 6, 4) }, Epoch: 8000},
	}
	configs := []string{CfgBase, CfgPhelps, CfgBR}

	serial := make(Matrix, len(specs))
	for _, s := range specs {
		rows := make(map[string]Result, len(configs))
		for _, c := range configs {
			rows[c] = mustRun(t, s.Build(), mustConfig(c, s.Epoch))
		}
		serial[s.Name] = rows
	}

	parallel, err := RunMatrixCtx(context.Background(), specs, configs, MatrixOptions{})
	if err != nil {
		t.Fatalf("RunMatrixCtx: %v", err)
	}
	for _, s := range specs {
		for _, c := range configs {
			ps, ss := parallel[s.Name][c], serial[s.Name][c]
			// Maps (RejectedLoops) and errors prevent blanket DeepEqual;
			// compare the scalar metrics, which is what the figures use.
			ps.Phelps.RejectedLoops, ss.Phelps.RejectedLoops = nil, nil
			ps.Runahead.RejectedLoops, ss.Runahead.RejectedLoops = nil, nil
			if !reflect.DeepEqual(ps, ss) {
				t.Errorf("%s/%s: parallel result differs from serial:\n%+v\nvs\n%+v", s.Name, c, ps, ss)
			}
		}
	}
}
