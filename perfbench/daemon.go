package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"phelps/internal/serve"
	"phelps/internal/sim"
)

// daemon_mix shape. Two closed-loop clients against two workers: each
// client waits for its job's result before submitting the next, so the
// daemon sees at most two jobs at once and never builds a queue.
const (
	daemonWorkers = 2
	daemonClients = 2
	// pollInterval is how often a client polls a running job. A cold job
	// takes tens to hundreds of milliseconds, so 2 ms adds at most a few
	// per cent to one; `phelps -submit` polls every 200 ms, which is too
	// coarse to measure with.
	pollInterval = 2 * time.Millisecond
	// warmPerExecuted is the number of warm resubmits per executed job in a
	// round. No recorded phelpsd traffic exists to take the mix from, so
	// this is a sampling choice, not a model of use: at 2 a round holds 340
	// warm jobs, enough that p95 has 17 samples beyond it.
	warmPerExecuted = 2
	// daemonCalibEvery is the least wall time between two calibration
	// samples in a round. A sample is taken with both clients parked and
	// no job in flight, so parking costs the round the wait for the other
	// client's job; 500 ms keeps that wait to a few per cent of a round.
	daemonCalibEvery = 500 * time.Millisecond
	// daemonSetupReps start-ups are measured before the first round;
	// setup_s is their median.
	daemonSetupReps = 30
	// max429Retries bounds how often a client retries a refused submit.
	max429Retries = 3
	jobTimeout    = 120 * time.Second
)

type jobKind int

const (
	kindWarm    jobKind = iota // resubmit of a verified job: a results-cache read
	kindCold                   // 1-cell quick job over a golden (workload, config) pair
	kindSampled                // 1-cell full-size sampled job
)

var kindNames = [...]string{"warm", "cold", "sampled"}

// djob is one entry of a round's job sequence. Warm entries carry no
// request: they resubmit a job that has already completed.
type djob struct {
	kind jobKind
	req  serve.JobRequest
	key  string // expectation key
}

// doneJob is a verified executed job that warm entries may resubmit.
type doneJob struct {
	req    serve.JobRequest
	key    string
	result json.RawMessage // the cell's result object, byte for byte
}

// daemonSequence builds one round's jobs: every golden quick pair as a cold
// job (so every golden check runs each round), every sampled (workload,
// config) pair (so each workload's first sampled job writes the checkpoint
// cache and the next two read it), and warmPerExecuted warm resubmits per
// executed job, in a seeded order. The first jobs are executed ones, so a
// warm entry always finds a completed job.
func daemonSequence(rng *rand.Rand, want *expectations) []djob {
	var seq []djob
	var quick []string
	for k := range want.cells {
		if strings.HasPrefix(k, "q/") {
			quick = append(quick, k)
		}
	}
	sort.Strings(quick)
	for _, k := range quick {
		_, w, c := splitKey(k)
		seq = append(seq, djob{kind: kindCold, key: k, req: serve.JobRequest{Workloads: []string{w}, Configs: []string{c}, Quick: true}})
	}
	for _, s := range sampledSpecs() {
		for _, c := range sampledConfigs {
			seq = append(seq, djob{kind: kindSampled, key: cellKey("s", s.Name, c),
				req: serve.JobRequest{Workloads: []string{s.Name}, Configs: []string{c}, Sampled: true}})
		}
	}
	for n := warmPerExecuted * len(seq); n > 0; n-- {
		seq = append(seq, djob{kind: kindWarm})
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for i := 0; i < 2*daemonClients; i++ {
		for j := i + 1; seq[i].kind == kindWarm && j < len(seq); j++ {
			if seq[j].kind != kindWarm {
				seq[i], seq[j] = seq[j], seq[i]
			}
		}
	}
	return seq
}

func splitKey(k string) (kind, workload, config string) {
	kind, rest, _ := strings.Cut(k, "/")
	workload, config, _ = strings.Cut(rest, "/")
	return kind, workload, config
}

// daemon is one in-process phelpsd on a loopback port.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{} // closed when Serve returns
}

// startDaemon starts a server whose journal and checkpoint cache live in
// dir, and returns once /v1/healthz answers healthy.
func startDaemon(dir string) (*daemon, error) {
	srv := serve.NewServer(serve.Config{
		Workers:    daemonWorkers,
		JournalDir: filepath.Join(dir, "journal"),
		CkptDir:    filepath.Join(dir, "ckpt"),
		CrashDir:   filepath.Join(dir, "crashes"),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // nothing was submitted; the listen error is what matters
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String() + serve.API,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * daemonClients}},
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h serve.Healthz
		code, err := d.get(context.Background(), "/healthz", &h)
		if err == nil && code == http.StatusOK && h.OK {
			return d, nil
		}
		if time.Now().After(deadline) {
			_ = d.stop() // the health-check failure is the error to report
			return nil, fmt.Errorf("daemon not healthy after 10s (last: %d %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server and drains the daemon, waiting for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	<-d.served
	derr := d.srv.Drain(ctx)
	d.client.CloseIdleConnections()
	if herr != nil {
		return herr
	}
	return derr
}

// do sends one request and decodes a JSON reply into v (when non-nil and
// the status is 2xx). It returns the status code and the raw body.
func (d *daemon) do(ctx context.Context, method, path string, body []byte, v any) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if v != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, v); err != nil {
			return resp.StatusCode, raw, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, raw, nil
}

func (d *daemon) get(ctx context.Context, path string, v any) (int, error) {
	code, _, err := d.do(ctx, http.MethodGet, path, nil, v)
	return code, err
}

// jobResult is GET /v1/jobs/{id}/result with each cell's result kept as raw
// bytes, so a warm resubmit can be compared byte for byte.
type jobResult struct {
	State string `json:"state"`
	Cells []struct {
		State  string          `json:"state"`
		Cached bool            `json:"cached"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	} `json:"cells"`
}

// jobTiming is what one job cost, as the client saw it.
type jobTiming struct {
	kind      jobKind
	key       string
	totalMs   float64 // POST to fetched result
	submitMs  float64 // POST round trip
	resultMs  float64 // GET result round trip
	queueMs   float64 // POST reply to the first poll showing the cell running
	queueSeen bool
	res       sim.Result
}

// runJob submits one job, polls it to completion, fetches and verifies the
// result. orig is the job a warm entry resubmits (nil otherwise).
func (d *daemon) runJob(ctx context.Context, tr *tracer, want *expectations, j djob, orig *doneJob) (jobTiming, *doneJob, error) {
	req, key := j.req, j.key
	if orig != nil {
		req, key = orig.req, orig.key
	}
	t := jobTiming{kind: j.kind, key: key}
	body, err := json.Marshal(req)
	if err != nil {
		return t, nil, err
	}
	jid := tr.start("job", kindNames[j.kind]+" "+key, 0)
	defer tr.end(jid)

	t0 := time.Now()
	var st serve.JobStatus
	for attempt := 0; ; attempt++ {
		sid := tr.start("http.submit", "", jid)
		ts := time.Now()
		code, raw, err := d.do(ctx, http.MethodPost, "/jobs", body, &st)
		t.submitMs = msSince(ts)
		tr.end(sid)
		if err != nil {
			return t, nil, fmt.Errorf("%s: submit: %w", key, err)
		}
		if code == http.StatusAccepted {
			break
		}
		if code != http.StatusTooManyRequests || attempt == max429Retries {
			return t, nil, fmt.Errorf("%s: submit: status %d: %s", key, code, bytes.TrimSpace(raw))
		}
		var er serve.ErrorReply
		_ = json.Unmarshal(raw, &er) // a malformed body just means the minimum wait
		time.Sleep(time.Duration(max(er.RetryAfterSec, 1)) * time.Second)
	}

	replied := time.Now()
	if st.State == serve.JobRunning {
		pid := tr.start("http.poll", "", jid)
		for st.State == serve.JobRunning {
			if time.Since(t0) > jobTimeout {
				tr.end(pid)
				return t, nil, fmt.Errorf("%s: job %s not done after %v", key, st.ID, jobTimeout)
			}
			time.Sleep(pollInterval)
			if _, err := d.get(ctx, "/jobs/"+st.ID, &st); err != nil {
				tr.end(pid)
				return t, nil, fmt.Errorf("%s: poll: %w", key, err)
			}
			if !t.queueSeen && len(st.Cells) == 1 && st.Cells[0].State != serve.CellPending {
				t.queueMs, t.queueSeen = msSince(replied), true
			}
		}
		tr.end(pid)
	}

	rid := tr.start("http.result", "", jid)
	tg := time.Now()
	var jr jobResult
	code, err := d.get(ctx, "/jobs/"+st.ID+"/result", &jr)
	t.resultMs = msSince(tg)
	tr.end(rid)
	t.totalMs = msSince(t0)
	if err != nil || code != http.StatusOK {
		return t, nil, fmt.Errorf("%s: result: status %d: %v", key, code, err)
	}

	// Verification: a done job with one done cell whose result matches the
	// expectation; a warm resubmit must come from the cache and repeat the
	// original result byte for byte.
	if jr.State != serve.JobDone || len(jr.Cells) != 1 || jr.Cells[0].State != serve.CellDone {
		msg := jr.State
		if len(jr.Cells) == 1 {
			msg += ": " + jr.Cells[0].Error
		}
		return t, nil, fmt.Errorf("%s: job %s ended %s", key, st.ID, msg)
	}
	cell := jr.Cells[0]
	if err := json.Unmarshal(cell.Result, &t.res); err != nil {
		return t, nil, fmt.Errorf("%s: decode result: %w", key, err)
	}
	if err := want.check(key, &t.res, nil); err != nil {
		return t, nil, err
	}
	if orig != nil {
		if !cell.Cached {
			return t, nil, fmt.Errorf("%s: warm resubmit was not served from the results cache", key)
		}
		if !bytes.Equal(cell.Result, orig.result) {
			return t, nil, fmt.Errorf("%s: warm result differs from the cold result", key)
		}
		return t, nil, nil
	}
	return t, &doneJob{req: req, key: key, result: append(json.RawMessage(nil), cell.Result...)}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// roundStats accumulates what the rounds of one kind (traced or not) saw.
type roundStats struct {
	rounds int
	secs   float64
	jobs   int
	// coldByKey holds each cold quick job's latency in seconds by
	// expectation key, one entry per round.
	coldByKey               map[string][]float64
	warmMs, coldMs          []float64
	submitMs, resultMs, qMs []float64
	quick                   []sim.Result // verified cold quick results
	counters                map[string]uint64
}

// runRound starts a fresh daemon, runs one sequence through it with the
// closed-loop clients, and stops it.
//
// When a calibration sample is due, the client that notices parks both
// clients: no new job starts, and once the other client's job has
// finished, the sample runs against an idle daemon. The sample's own time
// is not part of the round's time; the wait for the other client's job is,
// as time with one job in flight instead of two.
func runRound(env *runEnv, want *expectations, round int, traced bool, st *roundStats, out *outcome, cal *calibrator) error {
	dir := filepath.Join(env.out, "tmp", fmt.Sprintf("daemon-%d", round))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if traced {
		tr = env.tr
	}
	seq := daemonSequence(env.rng, want)

	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	rid := tr.start("round", strconv.Itoa(round), 0)

	var mu sync.Mutex // guards everything the clients share
	resume := sync.NewCond(&mu)
	parking, inFlight := false, 0
	var parked time.Duration
	cal.last = time.Now()
	next := 0
	var done []*doneJob
	var timings []jobTiming
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for parking {
					resume.Wait()
				}
				if next == len(seq) {
					mu.Unlock()
					return
				}
				j, idx := seq[next], next
				next++
				inFlight++
				var orig *doneJob
				if j.kind == kindWarm && len(done) > 0 {
					orig = done[env.rng.IntN(len(done))]
				}
				mu.Unlock()

				var t jobTiming
				var dj *doneJob
				err := fmt.Errorf("warm job %d: no verified job to resubmit", idx)
				if j.kind != kindWarm || orig != nil {
					t, dj, err = d.runJob(ctx, tr, want, j, orig)
				}
				mu.Lock()
				out.attempted++
				if err != nil {
					out.fail("%v", err)
				} else {
					timings = append(timings, t)
					if dj != nil {
						done = append(done, dj)
					}
				}
				inFlight--
				if !parking && next < len(seq) && time.Since(cal.last) >= daemonCalibEvery {
					parking = true
				}
				if parking && inFlight == 0 {
					t0 := time.Now()
					cal.force()
					parked += time.Since(t0)
					parking = false
					resume.Broadcast()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	secs := (time.Since(start) - parked).Seconds()
	tr.end(rid)

	if traced {
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if _, err := d.get(ctx, "/obs", &snap); err != nil {
			_ = d.stop() // the failed GET is the error to report
			return fmt.Errorf("GET /v1/obs: %w", err)
		}
		if st.counters == nil {
			st.counters = map[string]uint64{}
		}
		for k, v := range snap.Counters {
			st.counters[k] += v
		}
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}

	st.rounds++
	st.secs += secs
	st.jobs += len(timings)
	for _, t := range timings {
		switch t.kind {
		case kindWarm:
			st.warmMs = append(st.warmMs, t.totalMs)
		default:
			st.coldMs = append(st.coldMs, t.totalMs)
			if t.queueSeen {
				st.qMs = append(st.qMs, t.queueMs)
			}
			if t.kind == kindCold {
				st.quick = append(st.quick, t.res)
				if st.coldByKey == nil {
					st.coldByKey = map[string][]float64{}
				}
				st.coldByKey[t.key] = append(st.coldByKey[t.key], t.totalMs/1e3)
			}
		}
		st.submitMs = append(st.submitMs, t.submitMs)
		st.resultMs = append(st.resultMs, t.resultMs)
	}
	return nil
}

func runDaemonMix(env *runEnv) (*outcome, error) {
	out := &outcome{}
	want, err := loadExpectations(env.root)
	if err != nil {
		return nil, err
	}
	var setups []float64
	// Set-up samples are taken while no daemon runs, after a GC; round
	// samples while the clients are parked (see runRound).
	var cal, setupCal calibrator
	for i := 0; i < daemonSetupReps; i++ {
		debug.FreeOSMemory()
		setupCal.force()
		dir := filepath.Join(env.out, "tmp", fmt.Sprintf("daemon-setup-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := startDaemon(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := d.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	debug.FreeOSMemory()
	setupCal.force()

	l := newLedger()
	if env.tr != nil {
		rt := replayLayers(env.tr, quickSuites())
		rt.put(l)
		if err := sampledProbe(context.Background(), env.tr, want, env.out, out, l); err != nil {
			return nil, err
		}
	}

	var plain, traced roundStats
	start := time.Now()
	for round := 0; another(env, round, start); round++ {
		isTraced := env.tr != nil && round%2 == 1
		st := &plain
		if isTraced {
			st = &traced
		}
		if err := runRound(env, want, round, isTraced, st, out, &cal); err != nil {
			return nil, err
		}
		debug.FreeOSMemory() // each round starts from the same resident heap
	}

	if env.tr == nil {
		simRate, jobRate, f := coldInstPerS(want, plain.coldByKey), ratio(float64(plain.jobs), plain.secs), cal.factor()
		ms, err := endToEndMetrics(simRate*f, simRate, jobRate*f, jobRate, setups, &setupCal)
		if err != nil {
			return nil, err
		}
		out.metrics = ms
		info := map[string]any{"rounds": plain.rounds, "poll_interval_ms": pollInterval.Seconds() * 1000, "setups_s": setups,
			"calib_s": cal.samples, "calib_factor": cal.factor(), "setup_calib_s": setupCal.samples}
		for _, p := range []struct {
			name string
			xs   []float64
			p    float64
		}{{"warm_job_ms_p50", plain.warmMs, 50}, {"warm_job_ms_p95", plain.warmMs, 95}, {"cold_job_ms_p50", plain.coldMs, 50}, {"cold_job_ms_p90", plain.coldMs, 90}} {
			m, err := percentileMetric(p.name, "ms", p.xs, p.p)
			if err != nil {
				fmt.Fprintln(env.log, "info", err)
				continue
			}
			fmt.Fprintf(env.log, "info %-28s %12.4f ms n=%d beyond=%d\n", m.Name, m.Value, m.N, m.Beyond)
			info[m.Name] = m
		}
		out.extra = info
		return out, nil
	}

	l.set("serve.submit_ms_p50", median(traced.submitMs))
	l.set("serve.result_ms_p50", median(traced.resultMs))
	l.set("serve.queue_wait_ms_p50", median(traced.qMs))
	l.setPct("serve.warm_job_ms_p50", traced.warmMs, 50)
	l.setPct("serve.warm_job_ms_p95", traced.warmMs, 95)
	l.setPct("serve.cold_job_ms_p50", traced.coldMs, 50)
	l.setPct("serve.cold_job_ms_p90", traced.coldMs, 90)
	c := traced.counters
	l.set("serve.cache_hit_ratio", ratio(float64(c["serve.cache.hits"]), float64(c["serve.cache.hits"]+c["serve.cache.misses"])))
	l.set("serve.journal_appends_per_job", ratio(float64(c["serve.journal.appends"]), float64(traced.jobs)))
	l.set("serve.sched_steals", ratio(float64(c["serve.sched.steals"]), float64(traced.rounds)))
	l.set("ckpt.hit_ratio", ratio(float64(c["serve.ckpt.hits"]), float64(c["serve.ckpt.hits"]+c["serve.ckpt.misses"])))
	putResultCounts(l, traced.quick)
	l.set("trace.overhead_pct", (ratio(ratio(float64(plain.jobs), plain.secs), ratio(float64(traced.jobs), traced.secs))-1)*100)
	out.metrics = l.metrics()
	out.spans = env.tr.all()
	out.extra = map[string]any{"poll_interval_ms": pollInterval.Seconds() * 1000, "traced_rounds": traced.rounds, "untraced_rounds": plain.rounds}
	return out, nil
}

// coldInstPerS is the cycle-simulated instructions of one round's cold quick
// jobs per second of those jobs' latency: each job's latency is its median
// over the rounds. Sampled jobs are left out, because their retired count is
// extrapolated from the simulated intervals over the whole program.
func coldInstPerS(want *expectations, byKey map[string][]float64) float64 {
	var insts, secs float64
	for k, xs := range byKey {
		insts += float64(want.cells[k].Retired)
		secs += median(xs)
	}
	return ratio(insts, secs)
}

// putResultCounts derives the count metrics the daemon's results carry.
func putResultCounts(l *ledger, rs []sim.Result) {
	var l1a, l1m, pfi, pfu, cyc, skip float64
	for i := range rs {
		r := &rs[i]
		l1a += float64(r.Cache.L1DAccesses)
		l1m += float64(r.Cache.L1DMisses)
		pfi += float64(r.Cache.PrefIssued)
		pfu += float64(r.Cache.PrefUseful)
		cyc += float64(r.Cycles)
		skip += float64(r.SkippedCycles)
	}
	l.set("cache.l1d_miss_ratio", ratio(l1m, l1a))
	l.set("cache.prefetch_useful_ratio", ratio(pfu, pfi))
	l.set("clock.skip_ratio", ratio(skip, cyc))
}
