package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"phelps/internal/sim"
)

// goldenPath is the committed 116-cell cycle golden of the quick matrix,
// relative to the repository root. The benchmark only reads it.
const goldenPath = "internal/sim/testdata/golden_quick.json"

// pinnedJSON holds the expectations the golden does not cover: the
// chase_mem cells, the sampled cells of daemon_mix, and the content hash of
// every workload the benchmark builds. Regenerate deliberately with
// `perfbench -pin` (see README.md); a change here is a change to what the
// program computes, not to how fast it computes it.
//
//go:embed expect.json
var pinnedJSON []byte

// want is the expected outcome of one cell: the golden's fields.
type want struct {
	Cycles      uint64 `json:"cycles"`
	Retired     uint64 `json:"retired"`
	Mispredicts uint64 `json:"mispredicts"`
}

// pinnedCell is one pinned expectation.
type pinnedCell struct {
	Key string `json:"key"` // cellKey form
	want
}

type pinnedFile struct {
	Note   string            `json:"note"`
	Hashes map[string]uint64 `json:"hashes"` // hashKey form
	Cells  []pinnedCell      `json:"cells"`
}

// expectations maps a cell key to its expected outcome and a workload key to
// its content hash.
type expectations struct {
	cells  map[string]want
	hashes map[string]uint64
}

// Cell and workload keys. Quick cells ("q") come from the golden, micro
// kernel cells ("m") and sampled full-size cells ("s") from expect.json.
func cellKey(kind, workload, config string) string { return kind + "/" + workload + "/" + config }
func hashKey(quick bool, workload string) string {
	if quick {
		return "q/" + workload
	}
	return "f/" + workload
}

// loadExpectations reads the golden and the pinned file.
func loadExpectations(root string) (*expectations, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	var golden struct {
		Cells []struct {
			Workload string `json:"workload"`
			Config   string `json:"config"`
			want
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("parse golden: %w", err)
	}
	var pins pinnedFile
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return nil, fmt.Errorf("parse expect.json: %w", err)
	}
	e := &expectations{cells: map[string]want{}, hashes: pins.Hashes}
	for _, c := range golden.Cells {
		e.cells[cellKey("q", c.Workload, c.Config)] = c.want
	}
	for _, c := range pins.Cells {
		e.cells[c.Key] = c.want
	}
	if len(golden.Cells) == 0 || len(pins.Cells) == 0 || len(pins.Hashes) == 0 {
		return nil, fmt.Errorf("empty expectations (golden %d cells, pinned %d cells, %d hashes)",
			len(golden.Cells), len(pins.Cells), len(pins.Hashes))
	}
	return e, nil
}

// check compares one cell's outcome with its expectation. A run error, a
// missing expectation and any differing field are all failures.
func (e *expectations) check(key string, res *sim.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	w, ok := e.cells[key]
	if !ok {
		return fmt.Errorf("%s: no expectation", key)
	}
	got := want{res.Cycles, res.Retired, res.Mispredicts}
	if got != w {
		return fmt.Errorf("%s: got cycles=%d retired=%d mispredicts=%d, want cycles=%d retired=%d mispredicts=%d",
			key, got.Cycles, got.Retired, got.Mispredicts, w.Cycles, w.Retired, w.Mispredicts)
	}
	return nil
}

// checkHash compares a freshly built workload's content hash with the pin.
func (e *expectations) checkHash(quick bool, s sim.Spec) error {
	k := hashKey(quick, s.Name)
	w, ok := e.hashes[k]
	if !ok {
		return fmt.Errorf("workload %s: no pinned hash", k)
	}
	if got := sim.HashWorkload(s.Build()); got != w {
		return fmt.Errorf("workload %s: content hash %#x, pinned %#x (the generator changed; re-pin deliberately)", k, got, w)
	}
	return nil
}

// writePins regenerates expect.json by running every pinned cell once with
// the current program.
func writePins(root string, log io.Writer) error {
	ctx := context.Background()
	pins := pinnedFile{
		Note:   "Pinned by `perfbench -pin`: expected outcomes of the chase_mem (m/) and sampled daemon_mix (s/) cells, and workload content hashes (q/ quick, f/ full size).",
		Hashes: map[string]uint64{},
	}
	for _, s := range quickSuites() {
		pins.Hashes[hashKey(true, s.Name)] = sim.HashWorkload(s.Build())
	}
	for _, s := range sim.MicroSpecs(false) {
		pins.Hashes[hashKey(false, s.Name)] = sim.HashWorkload(s.Build())
		for _, c := range chaseConfigs {
			r, err := sim.RunCellCtx(ctx, s, c, sim.MatrixOptions{CrashDir: filepath.Join(root, ".bench_out", "crashes")})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", s.Name, c, err)
			}
			pins.Cells = append(pins.Cells, pinnedCell{cellKey("m", s.Name, c), want{r.Cycles, r.Retired, r.Mispredicts}})
			fmt.Fprintf(log, "pinned m/%s/%s\n", s.Name, c)
		}
	}
	for _, s := range sampledSpecs() {
		pins.Hashes[hashKey(false, s.Name)] = sim.HashWorkload(s.Build())
		for _, c := range sampledConfigs {
			cfg, err := sim.ConfigByName(c, s.Epoch)
			if err != nil {
				return err
			}
			r, err := sim.SampledRunCtx(ctx, s, cfg, sim.SampleConfig{})
			if err != nil {
				return fmt.Errorf("sampled %s/%s: %w", s.Name, c, err)
			}
			pins.Cells = append(pins.Cells, pinnedCell{cellKey("s", s.Name, c), want{r.Cycles, r.Retired, r.Mispredicts}})
			fmt.Fprintf(log, "pinned s/%s/%s\n", s.Name, c)
		}
	}
	sort.Slice(pins.Cells, func(i, j int) bool { return pins.Cells[i].Key < pins.Cells[j].Key })
	return writeJSONFile(filepath.Join(root, "perfbench", "expect.json"), pins)
}
