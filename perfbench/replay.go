package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"phelps/internal/bpred"
	"phelps/internal/cache"
	"phelps/internal/emu"
	"phelps/internal/sim"
	"phelps/internal/simpoint"
)

// The replay measurements time one layer alone on streams recorded from the
// workload's own programs. Streams are recorded with emu.FFObserver before
// any timing starts; each layer then runs over them with nothing else in
// the loop.

type branchRec struct {
	pc    uint64
	taken bool
}

type accessRec struct {
	pc, addr uint64
	store    bool
}

// replayTotals sums the replay measurements over a workload's programs.
type replayTotals struct {
	insts, branches, mispredicts, accesses uint64
	emuNs, bpredNs, cacheNs, buildNs       float64
	builds                                 int
}

// replayLayers records the branch and memory streams of each program, then
// times emu.FastForward, TAGE and the cache hierarchy over them.
func replayLayers(tr *tracer, specs []sim.Spec) replayTotals {
	var t replayTotals
	for _, s := range specs {
		parent := tr.start("replay", s.Name, 0)
		var brs []branchRec
		var accs []accessRec
		id := tr.start("prog.build", s.Name, parent)
		w := s.Build()
		t.buildNs += tr.end(id)
		t.builds++
		rec := &emu.FFObserver{
			Branch: func(pc uint64, taken bool) { brs = append(brs, branchRec{pc, taken}) },
			Load:   func(pc, addr uint64, size int) { accs = append(accs, accessRec{pc: pc, addr: addr}) },
			Store:  func(addr uint64, size int) { accs = append(accs, accessRec{addr: addr, store: true}) },
		}
		emu.New(w.Prog, w.Mem).FastForward(math.MaxUint64, rec)

		w = s.Build()
		e := emu.New(w.Prog, w.Mem)
		id = tr.start("emu.fastforward", s.Name, parent)
		n := e.FastForward(math.MaxUint64, nil)
		t.emuNs += tr.end(id)
		t.insts += n

		p := bpred.NewTAGE(bpred.DefaultTAGEConfig())
		id = tr.start("bpred.replay", s.Name, parent)
		for _, b := range brs {
			if p.PredictAndTrain(b.pc, b.taken) != b.taken {
				t.mispredicts++
			}
		}
		t.bpredNs += tr.end(id)
		t.branches += uint64(len(brs))

		h := cache.New(cache.DefaultConfig())
		var clk uint64 // pseudo-clock, as sim's functional warming uses
		id = tr.start("cache.replay", s.Name, parent)
		for _, a := range accs {
			if a.store {
				h.Store(a.addr, clk)
			} else {
				h.Load(a.pc, a.addr, clk)
			}
			clk += 4
		}
		t.cacheNs += tr.end(id)
		t.accesses += uint64(len(accs))
		tr.end(parent)
	}
	return t
}

// put stores the replay-derived metrics in the ledger.
func (t replayTotals) put(l *ledger) {
	insts := float64(t.insts)
	l.set("prog.build_ms", ratio(t.buildNs, float64(t.builds))/1e6)
	l.set("emu.ns_per_inst", ratio(t.emuNs, insts))
	l.set("bpred.ns_per_branch", ratio(t.bpredNs, float64(t.branches)))
	l.set("bpred.replay_mpki", ratio(float64(t.mispredicts)*1000, insts))
	l.set("cache.ns_per_access", ratio(t.cacheNs, float64(t.accesses)))
}

// perInst is the replayed emu, bpred and cache cost per instruction: the
// part of a base cell's time those layers explain.
func (t replayTotals) perInst() float64 {
	insts := float64(t.insts)
	return ratio(t.emuNs+t.bpredNs+t.cacheNs, insts)
}

// sampledProbe times the sampled pipeline's parts for the daemon's sampled
// workloads: simpoint.Pick on the profile intervals, and SampledRunCtx with
// an empty and then a filled checkpoint cache. Every sampled result is
// checked against its pinned expectation.
func sampledProbe(ctx context.Context, tr *tracer, want *expectations, dir string, out *outcome, l *ledger) error {
	ckdir := filepath.Join(dir, "probe-ckpt")
	if err := os.RemoveAll(ckdir); err != nil {
		return err
	}
	defer os.RemoveAll(ckdir)
	ck := sim.NewCkptCache(ckdir)
	var pickNs, coldNs, warmNs float64
	specs := sampledSpecs()
	for _, s := range specs {
		w := s.Build()
		coll := simpoint.NewBBVCollector(2000)
		total := emu.New(w.Prog, w.Mem).FastForward(math.MaxUint64, &emu.FFObserver{Block: coll.ObserveBlock})
		coll.Flush()
		ivs := simpoint.MergeIntervals(coll.Intervals(), intervalChunks(total))
		id := tr.start("simpoint.pick", s.Name, 0)
		simpoint.Pick(ivs, 4, 42)
		pickNs += tr.end(id)

		cfg, err := sim.ConfigByName(sim.CfgBase, s.Epoch)
		if err != nil {
			return err
		}
		for pass, acc := range []*float64{&coldNs, &warmNs} {
			id := tr.start("sim.sampled", fmt.Sprintf("%s/%s", s.Name, [2]string{"cold", "warm"}[pass]), 0)
			res, rerr := sim.SampledRunCtx(ctx, s, cfg, sim.SampleConfig{Ckpts: ck})
			*acc += tr.end(id)
			out.attempted++
			if cerr := want.check(cellKey("s", s.Name, sim.CfgBase), &res, rerr); cerr != nil {
				out.fail("sampled probe: %v", cerr)
			}
		}
	}
	n := float64(len(specs))
	l.set("simpoint.pick_ms", pickNs/n/1e6)
	l.set("sampled.cold_ms", coldNs/n/1e6)
	l.set("sampled.warm_ms", warmNs/n/1e6)
	return nil
}

// intervalChunks mirrors the sampled pipeline's interval sizing: about 50
// intervals of 2000-instruction chunks, clamped to one or two chunks.
func intervalChunks(total uint64) int {
	c := int((total/50 + 1000) / 2000)
	if c < 1 {
		c = 1
	}
	if c > 2 {
		c = 2
	}
	return c
}
