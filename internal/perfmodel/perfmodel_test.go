package perfmodel

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"testing"
)

// synth builds a deterministic synthetic training set: a smooth nonlinear
// surface over 4 features plus small index-hashed pseudo-noise, the shape of
// a real anchor set (config knobs × workload stats → IPC/MPKI).
func synth(n int) []Sample {
	out := make([]Sample, n)
	rng := uint64(7)
	for i := range out {
		x := make([]float64, 4)
		for j := range x {
			x[j] = float64(nextRand(&rng)%1000) / 1000
		}
		noise := (float64(nextRand(&rng)%100)/100 - 0.5) * 0.02
		ipc := 0.8 + 1.2*x[0] - 0.6*x[1]*x[1] + 0.4*x[2]*x[3] + noise
		mpki := 12 - 8*x[2] + 3*x[1] + noise
		out[i] = Sample{X: x, IPC: ipc, MPKI: mpki}
	}
	return out
}

var testFeatures = []string{"f0", "f1", "f2", "f3"}

func TestTrainRoundTripAndQuality(t *testing.T) {
	samples := synth(240)
	train, hold := samples[:200], samples[200:]
	m, err := Train(train, testFeatures, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Trees() == 0 {
		t.Fatal("no trees trained")
	}

	// The model must actually fit the surface: holdout MAPE under a few
	// percent for IPC and the MPKI ranking preserved.
	var errSum float64
	n := 0
	for _, s := range hold {
		errSum += math.Abs((m.PredictIPC(s.X) - s.IPC) / s.IPC)
		n++
	}
	if mape := errSum / float64(n) * 100; mape > 5 {
		t.Errorf("holdout IPC MAPE = %.2f%%, want < 5%%", mape)
	}

	// Round trip: decode(append) predicts identically and re-encodes to the
	// same bytes.
	blob := m.Append(nil)
	m2, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range hold {
		if m.PredictIPC(s.X) != m2.PredictIPC(s.X) || m.PredictMPKI(s.X) != m2.PredictMPKI(s.X) {
			t.Fatal("decoded model predicts differently")
		}
	}
	if !bytes.Equal(blob, m2.Append(nil)) {
		t.Error("re-encoded model differs from original bytes")
	}

	// The PPM1 layout is pinned byte for byte: a change to the envelope or
	// the body encoding shows up here, not as a silently unreadable blob.
	small, err := Train(synth(40), testFeatures, Config{Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	const pin = "09af8b878af487064c4e95caea7a1cf9701eb6a45c9f9b44ad184db612b637d2"
	if got := fmt.Sprintf("%x", sha256.Sum256(small.Append(nil))); got != pin {
		t.Errorf("model blob sha256 = %s, want %s", got, pin)
	}
}

// TestTrainDeterministic is the satellite determinism gate: the same anchor
// set trains to byte-identical serialized models, run to run — the same bug
// class as the simpoint.Pick map-order nondeterminism fixed in PR 7.
func TestTrainDeterministic(t *testing.T) {
	samples := synth(120)
	var blobs [][]byte
	for i := 0; i < 3; i++ {
		m, err := Train(samples, testFeatures, Config{Rounds: 120})
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, m.Append(nil))
	}
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Fatalf("training run %d serialized differently (len %d vs %d)", i, len(blobs[0]), len(blobs[i]))
		}
	}
	// Subsampled training is seeded, so it is deterministic too.
	a, err := Train(samples, testFeatures, Config{Rounds: 60, Subsample: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(samples, testFeatures, Config{Rounds: 60, Subsample: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Append(nil), b.Append(nil)) {
		t.Error("seeded subsampled training serialized differently")
	}
}

// TestTrainDeterministicAcrossMapOrders mirrors the real pipeline: anchor
// results are collected keyed by cell (a map), canonicalized into a sorted
// slice, and trained. The serialized model must not depend on the map's
// iteration order.
func TestTrainDeterministicAcrossMapOrders(t *testing.T) {
	samples := synth(80)
	train := func() []byte {
		byKey := make(map[int]Sample, len(samples))
		for i, s := range samples {
			byKey[i] = s
		}
		// Collect in map iteration order (different every run), then
		// canonicalize by key — the step sim.RunExplore performs before
		// training.
		keys := make([]int, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		ordered := make([]Sample, len(keys))
		for i, k := range keys {
			ordered[i] = byKey[k]
		}
		m, err := Train(ordered, testFeatures, Config{Rounds: 80})
		if err != nil {
			t.Fatal(err)
		}
		return m.Append(nil)
	}
	first := train()
	for i := 0; i < 4; i++ {
		if got := train(); !bytes.Equal(first, got) {
			t.Fatalf("map-order collection round %d serialized differently", i)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m, err := Train(synth(40), testFeatures, Config{Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	blob := m.Append(nil)
	if _, err := Decode(blob); err != nil {
		t.Fatalf("clean blob: %v", err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"tiny":         func(b []byte) []byte { return b[:4] },
		"bit flip":     func(b []byte) []byte { b[len(b)/3] ^= 0x40; return b },
		"magic":        func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"trailing":     func(b []byte) []byte { return append(b, 0) },
		"checksum":     func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"empty":        func([]byte) []byte { return nil },
		"schema skew":  func(b []byte) []byte { b[4] ^= 0x02; return b },
		"node feature": func(b []byte) []byte { b[len(b)/2] ^= 0x80; return b },
	} {
		bad := mutate(append([]byte(nil), blob...))
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: corrupted blob decoded without error", name)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, testFeatures, Config{}); err == nil {
		t.Error("empty sample set should error")
	}
	if _, err := Train([]Sample{{X: []float64{1}, IPC: 1}}, testFeatures, Config{}); err == nil {
		t.Error("short feature vector should error")
	}
	if _, err := Train([]Sample{{X: []float64{1, 2, 3, 4}, IPC: math.NaN()}}, testFeatures, Config{}); err == nil {
		t.Error("NaN target should error")
	}
	if _, err := Train([]Sample{{X: []float64{1, math.Inf(1), 3, 4}, IPC: 1}}, testFeatures, Config{}); err == nil {
		t.Error("infinite feature should error")
	}
	if _, err := Train([]Sample{{X: []float64{1, 2, 3, 4}, IPC: 1}}, nil, Config{}); err == nil {
		t.Error("no feature names should error")
	}
}

func TestStumpsAndConstantTarget(t *testing.T) {
	// Depth 1 trains stumps; a constant target trains base only (zero
	// trees) and predicts the constant.
	samples := synth(50)
	for i := range samples {
		samples[i].IPC = 1.5
	}
	m, err := Train(samples, testFeatures, Config{Depth: 1, Rounds: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PredictIPC(samples[0].X); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("constant target predicts %v, want 1.5", got)
	}
	// MPKI clamps below zero.
	for i := range samples {
		samples[i].MPKI = -3
	}
	m2, err := Train(samples, testFeatures, Config{Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.PredictMPKI(samples[0].X); got != 0 {
		t.Errorf("negative MPKI prediction = %v, want clamped 0", got)
	}
}

func TestAdjacentFloatSplit(t *testing.T) {
	// Splitting between two adjacent floats: a midpoint threshold rounds up
	// to the right-hand value here (round-to-even), which used to leave the
	// right child empty (node index -1) and panic at predict time. The
	// threshold must be the exact left-boundary value.
	v1 := math.Nextafter(1.0, 2) // odd mantissa, so the midpoint rounds up to v2
	v2 := math.Nextafter(v1, 2)
	samples := []Sample{
		{X: []float64{v1}, IPC: 1},
		{X: []float64{v1}, IPC: 1},
		{X: []float64{v2}, IPC: 2},
		{X: []float64{v2}, IPC: 2},
	}
	m, err := Train(samples, []string{"f"}, Config{Rounds: 1, Depth: 1, LearnRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(m.Append(nil)); err != nil {
		t.Fatalf("model with adjacent-float split does not round-trip: %v", err)
	}
	lo, hi := m.PredictIPC([]float64{v1}), m.PredictIPC([]float64{2.0})
	if !(lo < hi) {
		t.Errorf("split lost: predict(v1)=%v, predict(2.0)=%v", lo, hi)
	}
}
