package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"phelps/internal/serve"
	"phelps/internal/sim"
)

// perturbPin returns expect.json with one cell's expected cycles moved by
// one, and restores the original when the test ends.
func perturbPin(t *testing.T, key string) {
	t.Helper()
	orig := pinnedJSON
	t.Cleanup(func() { pinnedJSON = orig })
	var pins pinnedFile
	if err := json.Unmarshal(orig, &pins); err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range pins.Cells {
		if pins.Cells[i].Key == key {
			pins.Cells[i].Cycles++
			found = true
		}
	}
	if !found {
		t.Fatalf("no pinned cell %s", key)
	}
	b, err := json.Marshal(pins)
	if err != nil {
		t.Fatal(err)
	}
	pinnedJSON = b
}

func testEnv(t *testing.T, seed uint64) *runEnv {
	return &runEnv{
		seed:    seed,
		seconds: time.Millisecond,
		root:    "..",
		out:     t.TempDir(),
		rng:     rand.New(rand.NewPCG(seed, 1)),
		log:     &bytes.Buffer{},
	}
}

// A batch cell whose result differs from its expectation is a counted
// failure, and the run reports correct=false.
func TestPerturbedExpectationCounted(t *testing.T) {
	guarded, err := sim.SpecByName("guarded", false)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *outcome {
		out, err := runBatch(testEnv(t, 1), []sim.Spec{guarded}, []string{sim.CfgBase}, "m", false)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := run(); out.failed != 0 || out.attempted != 1 {
		t.Fatalf("pinned expectation: attempted=%d failed=%d %v, want 1/0", out.attempted, out.failed, out.failures)
	}

	perturbPin(t, cellKey("m", "guarded", sim.CfgBase))
	out := run()
	if out.failed != 1 || out.attempted != 1 || out.errorRate() != 1 {
		t.Fatalf("perturbed expectation: attempted=%d failed=%d, want 1/1", out.attempted, out.failed)
	}
	if !strings.Contains(out.failures[0], "m/guarded/base: got cycles=") {
		t.Fatalf("failure message %q does not name the mismatch", out.failures[0])
	}
	var stdout, stderr bytes.Buffer
	env := testEnv(t, 1)
	if code := report(env, &workloads[1], hostFingerprint(1), out, false, &stdout, &stderr); code != 0 {
		t.Fatalf("report exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("result line %q: want correct=false failed=1", lines[len(lines)-1])
	}
}

// A daemon job whose result differs from its expectation fails, and a warm
// resubmit must repeat the cold result byte for byte.
func TestDaemonJobChecks(t *testing.T) {
	want, err := loadExpectations("..")
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	key := cellKey("q", "cc_sv", sim.CfgBase)
	job := djob{kind: kindCold, key: key, req: serve.JobRequest{Workloads: []string{"cc_sv"}, Configs: []string{sim.CfgBase}, Quick: true}}
	_, done, err := d.runJob(ctx, nil, want, job, nil)
	if err != nil || done == nil {
		t.Fatalf("cold job: %v", err)
	}
	if _, _, err := d.runJob(ctx, nil, want, djob{kind: kindWarm}, done); err != nil {
		t.Fatalf("warm job: %v", err)
	}

	tampered := *done
	tampered.result = bytes.Replace(done.result, []byte(`"Cycles"`), []byte(`"Cycles" `), 1)
	if _, _, err := d.runJob(ctx, nil, want, djob{kind: kindWarm}, &tampered); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("warm job against a different cold result: err=%v, want a byte mismatch", err)
	}

	w := want.cells[key]
	w.Mispredicts++
	want.cells[key] = w
	if _, _, err := d.runJob(ctx, nil, want, djob{kind: kindWarm}, done); err == nil || !strings.Contains(err.Error(), "mispredicts") {
		t.Fatalf("job against a perturbed expectation: err=%v, want a mismatch", err)
	}
}

// The seed orders the work; it changes neither the set of cells and jobs
// nor any simulated input.
func TestSeedChangesOrderOnly(t *testing.T) {
	want, err := loadExpectations("..")
	if err != nil {
		t.Fatal(err)
	}
	keys := func(seed uint64) ([]string, []string) {
		seq := daemonSequence(rand.New(rand.NewPCG(seed, 1)), want)
		var order []string
		for _, j := range seq {
			order = append(order, kindNames[j.kind]+" "+j.key)
		}
		for i, j := range seq[:2*daemonClients] {
			if j.kind == kindWarm {
				t.Fatalf("seed %d: job %d is warm before any job can have completed", seed, i)
			}
		}
		set := append([]string(nil), order...)
		sort.Strings(set)
		return order, set
	}
	o1, s1 := keys(1)
	o2, s2 := keys(2)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("seeds 1 and 2 give different job sets")
	}
	if reflect.DeepEqual(o1, o2) {
		t.Fatal("seeds 1 and 2 give the same job order")
	}
	if n := len(s1); n != 3*(116+len(sampledSpecs())*len(sampledConfigs)) {
		t.Fatalf("round has %d jobs", n)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 110)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond, ok := percentile(xs, 90); !ok || v != 99 || beyond != 11 {
		t.Fatalf("p90 of 1..110 = %v beyond=%d ok=%v, want 99, 11, true", v, beyond, ok)
	}
	if _, beyond, ok := percentile(xs[:50], 90); ok || beyond != 5 {
		t.Fatalf("p90 of 50 samples: beyond=%d ok=%v, want 5, false", beyond, ok)
	}
	if _, err := percentileMetric("x", "ms", xs[:50], 90); err == nil {
		t.Fatal("percentileMetric emitted a percentile with 5 samples beyond it")
	}
}

// BENCHMARK.json and the benchmark's own catalogue name the same workloads
// and metrics with the same units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s %s vs %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer %d: %s %s vs %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// A calibration sample allocates nothing, so it never pays GC assists for
// the program's heap.
func TestCalibrateAllocatesNothing(t *testing.T) {
	calibrate()
	if n := testing.AllocsPerRun(3, func() { calibrate() }); n != 0 {
		t.Fatalf("calibrate allocates %v times per sample, want 0", n)
	}
}
