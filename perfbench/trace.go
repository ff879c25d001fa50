package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a cell, a job) share the operation's span as Parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil test per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name, attr string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Attr: attr, Start: now})
	return len(t.spans)
}

// end closes a span and returns its duration in nanoseconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return float64(s.End - s.Start)
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerMetric declares one per-layer metric of the traced run: its layer,
// the end-to-end metric and workload it should move, and where it should
// stay unchanged. The list mirrors per_layer in BENCHMARK.json.
type layerMetric struct {
	name, unit, layer, moves, stays string
}

var layerMetrics = []layerMetric{
	{"prog.build_ms", "ms", "prog", "sim_inst_per_s@chase_mem", "matrix_quick"},
	{"emu.ns_per_inst", "ns", "emu", "sim_inst_per_s@matrix_quick", "daemon_mix warm"},
	{"bpred.ns_per_branch", "ns", "bpred", "sim_inst_per_s@matrix_quick", "chase_mem"},
	{"bpred.replay_mpki", "mpki", "bpred", "(count; exact)", "-"},
	{"cache.ns_per_access", "ns", "cache", "sim_inst_per_s@chase_mem", "matrix_quick"},
	{"cache.l1d_miss_ratio", "fraction", "cache", "(count; exact)", "-"},
	{"cache.prefetch_useful_ratio", "fraction", "cache", "(count; exact)", "-"},
	{"clock.skip_ratio", "fraction", "clock", "sim_inst_per_s@chase_mem", "matrix_quick"},
	{"clock.stale_ratio", "fraction", "clock", "sim_inst_per_s@chase_mem", "matrix_quick"},
	{"sim.ns_per_stepped_cycle", "ns", "sim", "sim_inst_per_s@matrix_quick", "-"},
	{"sim.base.ns_per_inst", "ns", "sim", "sim_inst_per_s@matrix_quick,chase_mem", "daemon_mix warm"},
	{"sim.phelps.ns_per_inst", "ns", "sim", "sim_inst_per_s@matrix_quick,chase_mem", "daemon_mix warm"},
	{"sim.br.ns_per_inst", "ns", "sim", "sim_inst_per_s@matrix_quick", "daemon_mix warm"},
	{"sim.alloc_bytes_per_inst", "B", "sim", "peak_rss_mb@chase_mem", "-"},
	{"cpu.residual_ns_per_inst", "ns", "cpu", "sim_inst_per_s@matrix_quick", "-"},
	{"core.helper_ns_per_inst", "ns", "core", "sim_inst_per_s@chase_mem", "matrix_quick SPEC-like cells"},
	{"core.ht_insts_per_main_inst", "ratio", "core", "sim_inst_per_s@chase_mem", "matrix_quick SPEC-like cells"},
	{"core.queue_timely_ratio", "fraction", "core", "sim_inst_per_s@chase_mem", "matrix_quick SPEC-like cells"},
	{"runahead.chain_ns_per_inst", "ns", "runahead", "sim_inst_per_s@matrix_quick", "chase_mem"},
	{"runahead.queue_useful_ratio", "fraction", "runahead", "sim_inst_per_s@matrix_quick", "chase_mem"},
	{"simpoint.pick_ms", "ms", "simpoint", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"sampled.cold_ms", "ms", "sim", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"sampled.warm_ms", "ms", "sim", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"ckpt.hit_ratio", "fraction", "sim", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"serve.submit_ms_p50", "ms", "serve", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"serve.result_ms_p50", "ms", "serve", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"serve.queue_wait_ms_p50", "ms", "serve", "jobs_per_s@daemon_mix", "daemon_mix warm jobs"},
	{"serve.cache_hit_ratio", "fraction", "serve", "jobs_per_s@daemon_mix", "-"},
	{"serve.journal_appends_per_job", "count", "serve", "jobs_per_s@daemon_mix", "-"},
	{"serve.sched_steals", "count", "serve", "jobs_per_s@daemon_mix", "-"},
	{"serve.warm_job_ms_p50", "ms", "serve", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"serve.warm_job_ms_p95", "ms", "serve", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"serve.cold_job_ms_p50", "ms", "serve", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"serve.cold_job_ms_p90", "ms", "serve", "jobs_per_s@daemon_mix", "matrix_quick,chase_mem"},
	{"trace.overhead_pct", "%", "bench", "-", "-"},
}

// ledger collects per-layer values by name. Metrics a workload does not
// exercise keep the value 0 and are marked "not exercised".
type ledger struct {
	vals  map[string]float64
	n     map[string][2]int // percentile sample count and beyond count
	notes map[string]string
}

func newLedger() *ledger {
	return &ledger{vals: map[string]float64{}, n: map[string][2]int{}, notes: map[string]string{}}
}

func (l *ledger) set(name string, v float64) { l.vals[name] = v }

// setPct records a percentile metric, or the reason it was refused.
func (l *ledger) setPct(name string, xs []float64, p float64) {
	v, beyond, ok := percentile(xs, p)
	if !ok {
		l.notes[name] = "refused: too few samples beyond the percentile"
		return
	}
	l.vals[name] = v
	l.n[name] = [2]int{len(xs), beyond}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics renders the ledger in catalogue order. Every catalogue metric is
// present, so every traced run reports the same metric set.
func (l *ledger) metrics() []metric {
	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		v, ok := l.vals[lm.name]
		note := l.notes[lm.name]
		if !ok && note == "" {
			note = "not exercised by this workload"
		}
		n := l.n[lm.name]
		out = append(out, metric{Name: lm.name, Value: v, Unit: lm.unit, N: n[0], Beyond: n[1],
			Layer: lm.layer, Moves: lm.moves, Stays: lm.stays, Note: note})
	}
	return out
}
