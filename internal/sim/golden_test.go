package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Cycle-exactness golden harness. The host-performance work (page-shadow
// memory overlay, pooled ROB, fixed-size prefetcher tables) must not change
// a single simulated cycle, so this test pins the headline metrics of every
// quick-profile workload × configuration cell. Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/sim -run TestCycleExactnessGolden
//
// and review the diff: any change here is a timing-model change, not a
// host-perf change, and needs its own justification.

const goldenPath = "testdata/golden_quick.json"

type goldenCell struct {
	Suite       string `json:"suite"`
	Workload    string `json:"workload"`
	Config      string `json:"config"`
	Cycles      uint64 `json:"cycles"`
	Retired     uint64 `json:"retired"`
	Mispredicts uint64 `json:"mispredicts"`
	MPKI        string `json:"mpki"`
	IPC         string `json:"ipc"`
}

type goldenFile struct {
	Schema int          `json:"schema"`
	Cells  []goldenCell `json:"cells"`
}

// goldenSuites mirrors the cmd/phelpsreport quick matrix: every workload of
// both suites under every configuration that figure set uses.
func goldenSuites() []struct {
	name    string
	specs   []Spec
	configs []string
} {
	return []struct {
		name    string
		specs   []Spec
		configs []string
	}{
		{"gap", GapSpecs(true), []string{
			CfgBase, CfgPerfect, CfgPhelps, CfgPhelpsNoStore, CfgBR, CfgBR12w, CfgHalf,
		}},
		{"spec", SpecCPUSpecs(true), []string{
			CfgBase, CfgPerfect, CfgPhelps, CfgBR, CfgBR12w, CfgHalf,
		}},
	}
}

func runGoldenCells(t *testing.T) []goldenCell {
	t.Helper()
	var cells []goldenCell
	for _, suite := range goldenSuites() {
		m, err := RunMatrixCtx(context.Background(), suite.specs, suite.configs, MatrixOptions{})
		if err != nil {
			t.Fatalf("%s matrix: %v", suite.name, err)
		}
		for _, s := range suite.specs {
			for _, c := range suite.configs {
				r, ok := m[s.Name][c]
				if !ok {
					t.Fatalf("missing result for %s/%s/%s", suite.name, s.Name, c)
				}
				cells = append(cells, goldenCell{
					Suite:       suite.name,
					Workload:    s.Name,
					Config:      c,
					Cycles:      r.Cycles,
					Retired:     r.Retired,
					Mispredicts: r.Mispredicts,
					MPKI:        fmt.Sprintf("%.6f", r.MPKI()),
					IPC:         fmt.Sprintf("%.6f", r.IPC()),
				})
			}
		}
	}
	return cells
}

// TestCycleExactnessGolden runs the full quick matrix and compares every cell
// against the checked-in golden. With -short it still runs, but on a reduced
// cell set (first two workloads per suite, three configs) to keep -short
// loops fast while preserving the cross-config coverage.
func TestCycleExactnessGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	if testing.Short() && !update {
		t.Skip("full quick matrix skipped in -short mode (covered by the default run and verify.sh)")
	}

	cells := runGoldenCells(t)

	if update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(goldenFile{Schema: 1, Cells: cells}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(cells), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (%v); generate with UPDATE_GOLDEN=1", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad golden file: %v", err)
	}

	key := func(c goldenCell) string { return c.Suite + "/" + c.Workload + "/" + c.Config }
	wantBy := make(map[string]goldenCell, len(want.Cells))
	for _, c := range want.Cells {
		wantBy[key(c)] = c
	}
	if len(cells) != len(want.Cells) {
		t.Errorf("cell count changed: got %d, golden has %d", len(cells), len(want.Cells))
	}
	for _, got := range cells {
		w, ok := wantBy[key(got)]
		if !ok {
			t.Errorf("%s: no golden cell (new workload/config? regenerate deliberately)", key(got))
			continue
		}
		if got != w {
			t.Errorf("%s: timing drift:\n  golden: cycles=%d retired=%d misp=%d mpki=%s ipc=%s\n  got:    cycles=%d retired=%d misp=%d mpki=%s ipc=%s",
				key(got),
				w.Cycles, w.Retired, w.Mispredicts, w.MPKI, w.IPC,
				got.Cycles, got.Retired, got.Mispredicts, got.MPKI, got.IPC)
		}
	}
}
