package sim

import (
	"phelps/internal/cache"
	"phelps/internal/codec"
	"phelps/internal/prog"
)

// HashWorkload hashes a built workload's identity under one running FNV-1a
// state: program base/entry, every instruction's fields, the run bound, and
// the architectural memory image (emu.Memory.HashArch). Labels and the Verify closure are deliberately
// excluded — they don't change what a run computes. phelpsd keys its results
// cache on this, and the checkpoint cache (CkptCache) keys persisted
// SimPoint state on it, so a workload whose definition changes (sizes, seeds,
// code) simply stops matching stale entries. Hash freshly built workloads:
// the memory hash ignores pending stores but reflects every architectural
// write a run has already made.
func HashWorkload(w *prog.Workload) uint64 {
	h := codec.FNVOffset64
	p := w.Prog
	h = codec.Mix64(h, p.Base)
	h = codec.Mix64(h, p.Entry)
	h = codec.Mix64(h, uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		h = codec.Mix64(h, uint64(in.Op))
		h = codec.Mix64(h, uint64(in.Rd)<<32|uint64(in.Rs1)<<16|uint64(in.Rs2))
		h = codec.Mix64(h, uint64(in.Imm))
		h = codec.Mix64(h, uint64(in.CmpOp))
		dir := uint64(0)
		if in.PredDir {
			dir = 1
		}
		h = codec.Mix64(h, uint64(in.PredDst)<<32|uint64(in.PredSrc)<<1|dir)
	}
	h = codec.Mix64(h, w.MaxInsts)
	h = codec.Mix64(h, w.Mem.HashArch())
	return h
}

// hashCacheConfig digests every field of a cache configuration. Warmed
// hierarchy state is only valid for the geometry it was trained on, so the
// checkpoint-cache key includes this.
func hashCacheConfig(c cache.Config) uint64 {
	h := codec.FNVOffset64
	for _, v := range []int{
		c.L1ISets, c.L1IWays, c.L1DSets, c.L1DWays,
		c.L2Sets, c.L2Ways, c.L3Sets, c.L3Ways, c.MSHRs,
	} {
		h = codec.Mix64(h, uint64(v))
	}
	for _, v := range []uint64{c.L1Latency, c.L2Latency, c.L3Latency, c.DRAMLatency} {
		h = codec.Mix64(h, v)
	}
	b := uint64(0)
	if c.L1Prefetch {
		b |= 1
	}
	if c.L2Prefetch {
		b |= 2
	}
	return codec.Mix64(h, b)
}
