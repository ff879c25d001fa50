package serve

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"phelps/internal/fsio"
	"phelps/internal/sim"
)

func twoCellReq() JobRequest {
	return JobRequest{Workloads: []string{"guarded", "delinquent"}, Configs: []string{sim.CfgBase}, Quick: true}
}

// TestJournalRoundTrip drives a job through the journal's record kinds and
// requires a reopened journal to reconstruct it exactly — and to forget it
// once it completes.
func TestJournalRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	req := twoCellReq()

	j := OpenJournal(fsio.OS, dir)
	j.Accept("j-000007", req)
	j.Cell("j-000007", 0, CellRunning, 1, "", false)
	j.Cell("j-000007", 0, CellDone, 1, "", false)
	j.Cell("j-000007", 1, CellRunning, 3, "", false)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2 := OpenJournal(fsio.OS, dir)
	resumed := j2.Resumed()
	if len(resumed) != 1 {
		t.Fatalf("resumed %d jobs, want 1", len(resumed))
	}
	rj := resumed[0]
	if rj.ID != "j-000007" || len(rj.Cells) != 2 {
		t.Fatalf("resumed job = %+v", rj)
	}
	if c := rj.Cells[0]; c.State != CellDone || c.Attempt != 1 {
		t.Errorf("cell 0 = %+v, want done/attempt 1", c)
	}
	if c := rj.Cells[1]; c.State != CellRunning || c.Attempt != 3 {
		t.Errorf("cell 1 = %+v, want running/attempt 3", c)
	}

	// Finishing the job makes it compactable: the next boot sees nothing.
	j2.Cell("j-000007", 1, CellDone, 4, "", false)
	j2.JobDone("j-000007")
	if err := j2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	j3 := OpenJournal(fsio.OS, dir)
	defer j3.Close()
	if got := j3.Resumed(); len(got) != 0 {
		t.Errorf("completed job survived compaction: %+v", got)
	}
}

// TestJournalReplaysOlderFile replays testdata/journal_parent.wal, a journal
// written by the previous release's code (one finished job, one canceled
// job, two live jobs with running, done, failed and pending cells). The
// format is unversioned by release, so acknowledged jobs must survive an
// upgrade: every record replays and the same jobs resume.
func TestJournalReplaysOlderFile(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile(filepath.Join("testdata", "journal_parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	want := []ResumedJob{
		{ID: "j-000002",
			Req: JobRequest{Workloads: []string{"guarded", "delinquent"},
				Configs: []string{sim.CfgBase, sim.CfgPhelps}, Quick: true},
			Cells: []ResumedCell{
				{State: CellDone, Attempt: 1},
				{State: CellRunning, Attempt: 2},
				{State: CellFailed, Attempt: 1, Error: "boom: deterministic", Perm: true},
				{State: CellPending},
			}},
		{ID: "j-000004",
			Req:   JobRequest{Workloads: []string{"nested"}, Configs: []string{sim.CfgBR}, Quick: true},
			Cells: []ResumedCell{{State: CellPending}}},
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The second open replays the file the first one compacted.
	for round := 0; round < 2; round++ {
		j := OpenJournal(fsio.OS, dir)
		if round == 0 && j.Replayed() != 12 {
			t.Errorf("replayed %d records, want 12", j.Replayed())
		}
		if j.Truncated() != 0 || j.Errors() != 0 {
			t.Errorf("round %d: truncated=%d errors=%d, want 0/0", round, j.Truncated(), j.Errors())
		}
		if got := j.Resumed(); !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: resumed %+v\nwant %+v", round, got, want)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalTornTail appends garbage after valid records: replay must stop
// at the torn frame (counted), keep everything before it, and compaction
// must drop the tail.
func TestJournalTornTail(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j := OpenJournal(fsio.OS, dir)
	j.Accept("j-000001", twoCellReq())
	j.Cell("j-000001", 0, CellRunning, 1, "", false)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := OpenJournal(fsio.OS, dir)
	defer j2.Close()
	if j2.Truncated() == 0 {
		t.Error("torn tail not counted as truncated")
	}
	resumed := j2.Resumed()
	if len(resumed) != 1 || resumed[0].Cells[0].State != CellRunning {
		t.Fatalf("records before the tear lost: %+v", resumed)
	}
	// Boot compaction rewrote the file; a third open replays cleanly.
	j3 := OpenJournal(fsio.OS, dir)
	defer j3.Close()
	if j3.Truncated() != 0 {
		t.Errorf("compaction left a torn tail behind (truncated=%d)", j3.Truncated())
	}
}

// TestJournalGarbageFile proves a corrupt header degrades to a counted error
// with the journal still usable for new work.
func TestJournalGarbageFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := OpenJournal(fsio.OS, dir)
	defer j.Close()
	if j.Errors() == 0 {
		t.Error("garbage header not counted as an error")
	}
	if got := j.Resumed(); len(got) != 0 {
		t.Errorf("garbage file resumed jobs: %+v", got)
	}
	j.Accept("j-000001", twoCellReq())
	if st := j.Stats(); st.Degraded {
		t.Errorf("journal degraded after garbage file: %+v", st)
	}
	j2 := OpenJournal(fsio.OS, dir)
	defer j2.Close()
	if got := j2.Resumed(); len(got) != 1 {
		t.Errorf("accept after garbage recovery not replayed: %d jobs", len(got))
	}
}

// TestJournalDiskFaults proves journal I/O failures degrade to counted errors
// — never a crash — and that the journal heals once the disk does.
func TestJournalDiskFaults(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ffs := &fsio.FaultFS{}
	ffs.FailWrites(fsio.ErrNoSpace)
	j := OpenJournal(ffs, dir)
	j.Accept("j-000001", twoCellReq())
	j.Cell("j-000001", 0, CellDone, 1, "", false)
	if j.Errors() == 0 {
		t.Error("ENOSPC appends not counted")
	}
	// In-memory view still tracks the job even though nothing reached disk.
	if got := j.Resumed(); len(got) != 1 {
		t.Errorf("in-memory live view lost under ENOSPC: %d jobs", len(got))
	}
	j.Close()

	ffs.FailWrites(nil)
	j2 := OpenJournal(ffs, dir)
	defer j2.Close()
	if got := j2.Resumed(); len(got) != 0 {
		t.Errorf("ENOSPC journal resumed phantom jobs: %+v", got)
	}
	j2.Accept("j-000002", twoCellReq())
	if st := j2.Stats(); st.Degraded || st.SizeBytes == 0 {
		t.Errorf("journal did not heal: %+v", st)
	}
}

// TestServerResumesJournaledJob boots a daemon over a journal holding an
// incomplete job (the shape a SIGKILL leaves behind): the job is re-registered
// under its original ID, its unresolved cells re-run idempotently, a journaled
// terminal failure stays sticky, and new submissions don't collide with the
// resumed ID.
func TestServerResumesJournaledJob(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	req := twoCellReq()

	j := OpenJournal(fsio.OS, dir)
	j.Accept("j-000003", req)
	j.Cell("j-000003", 0, CellRunning, 1, "", false)
	j.Cell("j-000003", 1, CellFailed, 1, "sim: verification failed", true)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 2, JournalDir: dir})
	fin := waitJob(t, ts, "j-000003")
	if fin.State != JobFailed {
		t.Fatalf("resumed job state = %s, want failed (sticky cell): %+v", fin.State, fin)
	}
	for _, c := range fin.Cells {
		switch c.Workload {
		case "guarded":
			if c.State != CellDone {
				t.Errorf("re-run cell: state %s, want done (err %q)", c.State, c.Error)
			}
		case "delinquent":
			if c.State != CellFailed || !strings.Contains(c.Error, "verification") {
				t.Errorf("sticky cell: state %s error %q, want journaled failure", c.State, c.Error)
			}
		}
	}
	if s.journal.ResumedJobs() != 1 {
		t.Errorf("resumed_jobs = %d, want 1", s.journal.ResumedJobs())
	}

	// The ID sequence was bumped past the resumed job.
	st, resp := postJob(t, ts, JobRequest{Workloads: []string{"guarded"}, Configs: []string{sim.CfgBase}, Quick: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-resume submit: %s", resp.Status)
	}
	if st.ID <= "j-000003" {
		t.Errorf("new job ID %s collides with resumed sequence", st.ID)
	}
	if fin2 := waitJob(t, ts, st.ID); fin2.State != JobDone {
		t.Errorf("post-resume job state = %s", fin2.State)
	}

	// Once everything is terminal, a restart has nothing to resume.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	j2 := OpenJournal(fsio.OS, dir)
	defer j2.Close()
	if got := j2.Resumed(); len(got) != 0 {
		t.Errorf("terminal jobs survived in journal: %+v", got)
	}
}

// TestResumedJobBitIdentical journals a fully unstarted job, lets a fresh
// daemon resume it, and requires the recovered results to be bit-identical to
// a direct library run — resume must be a replay, never a perturbation.
func TestResumedJobBitIdentical(t *testing.T) {
	t.Parallel()
	workloads := []string{"guarded", "delinquent"}
	configs := []string{sim.CfgBase, sim.CfgPhelps}
	var specs []sim.Spec
	for _, w := range workloads {
		sp, err := sim.SpecByName(w, true)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	want, err := sim.RunMatrixCtx(context.Background(), specs, configs, sim.MatrixOptions{CrashDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j := OpenJournal(fsio.OS, dir)
	j.Accept("j-000001", JobRequest{Workloads: workloads, Configs: configs, Quick: true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 2, JournalDir: dir})
	if fin := waitJob(t, ts, "j-000001"); fin.State != JobDone {
		t.Fatalf("resumed job state = %s", fin.State)
	}
	for _, c := range jobResult(t, ts, "j-000001").Cells {
		w := want[c.Workload][c.Config]
		if c.Result == nil || c.Result.Cycles != w.Cycles || c.Result.Retired != w.Retired {
			t.Errorf("%s/%s: resumed run not bit-identical to direct run", c.Workload, c.Config)
		}
	}
}
