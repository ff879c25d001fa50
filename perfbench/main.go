// Command perfbench is the repository benchmark. It drives the simulator
// library and the phelpsd service from outside, times its own calls into
// each layer's public functions, checks every simulated result against a
// committed expectation, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer ledger) as one JSON object on the last line of
// standard output. README.md explains the workloads and every metric.
//
//	bash perfbench/run.sh --workload matrix_quick --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one benchmark input set. run measures it for env.seconds and
// reports what it attempted, what failed, and its metrics.
type workload struct {
	name string
	why  string
	run  func(env *runEnv) (*outcome, error)
}

// workloads lists every workload the benchmark offers, in BENCHMARK.json
// order.
var workloads = []workload{
	{"matrix_quick", "compute-bound quick GAP+SPEC-like matrix under base, phelps and br; helper engines barely run", runMatrixQuick},
	{"chase_mem", "memory-bound micro-kernels under base and phelps; the event clock skips most base cycles", runChaseMem},
	{"daemon_mix", "in-process phelpsd with two closed-loop clients mixing warm, cold and sampled jobs", runDaemonMix},
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. Every workload reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"sim_inst_per_s", "inst/s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// endToEndMetrics builds the end-to-end metrics from a run's throughputs,
// scaled to the nominal host speed and raw, and its set-up times, reading
// the process's peak RSS. Each set-up is scaled by the samples taken just
// before and after it. The notes keep the raw values.
func endToEndMetrics(simInstPerS, rawSimInstPerS, jobsPerS, rawJobsPerS float64, setups []float64, setupCal *calibrator) ([]metric, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	ms := []metric{
		{Value: simInstPerS, Note: fmt.Sprintf("raw %.6g", rawSimInstPerS)},
		{Value: jobsPerS, Note: fmt.Sprintf("raw %.6g", rawJobsPerS)},
		{Value: rss},
		{Value: setupCal.scaledMedian(setups), Note: fmt.Sprintf("raw %.6g; median of %d set-ups", median(setups), len(setups))},
	}
	for i, e := range endToEnd {
		ms[i].Name, ms[i].Unit = e.name, e.unit
	}
	return ms, nil
}

// runEnv is what a workload gets from the command line.
type runEnv struct {
	seed    uint64
	seconds time.Duration
	root    string // repository checkout (holds internal/sim/testdata)
	out     string // artifact and scratch directory inside the checkout
	rng     *rand.Rand
	tr      *tracer // nil unless --trace 1
	log     io.Writer
}

// outcome is one workload run's result before printing.
type outcome struct {
	attempted, failed int
	failures          []string // first few failure messages
	metrics           []metric // end-to-end (untraced) or per-layer (traced)
	spans             []span   // traced runs only
	extra             map[string]any
}

// metric is one named number with its unit. N > 0 marks a percentile: the
// sample count it was taken over and how many samples lie beyond it.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Beyond int     `json:"beyond,omitempty"`
	Layer  string  `json:"layer,omitempty"`
	Moves  string  `json:"moves,omitempty"`
	Stays  string  `json:"stays,omitempty"`
	Note   string  `json:"note,omitempty"`
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// errorRate is failed operations over attempted ones.
func (o *outcome) errorRate() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed for cell order and the daemon job sequence")
	seconds := fs.Int("seconds", 30, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: emit the per-layer ledger instead of end-to-end metrics")
	root := fs.String("root", ".", "repository checkout root")
	pin := fs.Bool("pin", false, "regenerate perfbench/expect.json from the current program and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		if err := writePins(*root, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: pin:", err)
			return 1
		}
		return 0
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}

	env := &runEnv{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		root:    *root,
		out:     filepath.Join(*root, ".bench_out"),
		rng:     rand.New(rand.NewPCG(*seed, 0x9e3779b97f4a7c15)),
		log:     stdout,
	}
	if *trace == 1 {
		env.tr = newTracer()
	}
	if err := os.MkdirAll(env.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := hostFingerprint(*seed)
	fmt.Fprintf(stdout, "host cpu=%q num_cpu=%d gomaxprocs=%d go=%s seed=%d workload=%s seconds=%d trace=%d\n",
		host.CPU, host.NumCPU, host.GOMAXPROCS, host.Go, host.Seed, wl.name, *seconds, *trace)

	out, err := wl.run(env)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", wl.name+":", err)
		return 1
	}
	return report(env, wl, host, out, *trace == 1, stdout, stderr)
}

// another reports whether a run that has made n passes (or rounds) since
// start makes one more. Untraced runs make at least one and traced runs at
// least two, one untraced and one traced. Beyond that a pass starts only if,
// at the mean pass time so far, it would end less than half a pass after
// the deadline; so a run lasts about --seconds even when the host is slow.
func another(env *runEnv, n int, start time.Time) bool {
	least := 1
	if env.tr != nil {
		least = 2
	}
	if n < least {
		return true
	}
	el := time.Since(start)
	return el+el/time.Duration(2*n) < env.seconds
}

// report prints the human-readable lines, writes the run's artifact, and
// ends standard output with the one-line JSON result.
func report(env *runEnv, wl *workload, host host, out *outcome, traced bool, stdout, stderr io.Writer) int {
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	fmt.Fprintf(stdout, "ops attempted=%d failed=%d error_rate=%.6f\n", out.attempted, out.failed, out.errorRate())
	for _, m := range out.metrics {
		line := fmt.Sprintf("metric %-30s %14.6g %-9s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d beyond=%d", m.N, m.Beyond)
		}
		if m.Moves != "" {
			line += fmt.Sprintf(" layer=%s moves=%s stays=%s", m.Layer, m.Moves, m.Stays)
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Fprintln(stdout, line)
	}

	kind := "e2e"
	if traced {
		kind = "trace"
	}
	art := map[string]any{
		"workload":   wl.name,
		"why":        wl.why,
		"host":       host,
		"attempted":  out.attempted,
		"failed":     out.failed,
		"error_rate": out.errorRate(),
		"failures":   out.failures,
		"metrics":    out.metrics,
	}
	if traced {
		art["spans"] = out.spans
	}
	for k, v := range out.extra {
		art[k] = v
	}
	path := filepath.Join(env.out, fmt.Sprintf("%s-seed%d-%s.json", wl.name, env.seed, kind))
	if err := writeJSONFile(path, art); err != nil {
		fmt.Fprintln(stderr, "perfbench: artifact:", err)
		return 1
	}
	fmt.Fprintln(stdout, "artifact", path)

	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, map[string]metricValue{}}
	for _, m := range out.metrics {
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// host is the fingerprint printed with every run: numbers from different
// machines are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       uint64 `json:"seed"`
}

func hostFingerprint(seed uint64) host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Seed: seed}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMiB returns the process's VmHWM (peak resident set) in MiB.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median returns the middle value (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// the number of samples beyond it, and whether at least minBeyond samples
// lie beyond it. A percentile that fails that test is not reported.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(n) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond = n - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// percentileMetric builds a percentile metric, or reports why it was
// refused.
func percentileMetric(name, unit string, xs []float64, p float64) (metric, error) {
	v, beyond, ok := percentile(xs, p)
	if !ok {
		return metric{}, fmt.Errorf("%s: %d samples leave %d beyond p%g (need %d); not reported", name, len(xs), beyond, p, minBeyond)
	}
	return metric{Name: name, Value: v, Unit: unit, N: len(xs), Beyond: beyond}, nil
}
