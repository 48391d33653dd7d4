package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

const (
	// serviceClients is the closed loop's client count (the host's two
	// CPUs); each waits for its job's result before submitting the next.
	serviceClients = 2
	// countPositions bounds the job-list positions whose results feed the
	// exact counts; traced runs always get past it.
	countPositions = 100
	// jobWaitLimit bounds the wait for one job; a job still running
	// after it is a failure.
	jobWaitLimit = 150 * time.Second
	// serviceEventCap replaces the server's default per-job event ring
	// of 65,536 events. Every queued job allocates its ring up front
	// (about 5 MB at the default) and the server keeps every job for its
	// lifetime, so a 20 s closed loop at the default reached 1.5–2.3 GB
	// of RSS. Every other option stays at its default.
	serviceEventCap = 256
)

// svcState is a started service with its job stream.
type svcState struct {
	jobs      []svcJob
	srv       *service.Server
	hs        *http.Server
	base      string
	client    *http.Client
	serveDone chan struct{}
}

// startService starts a Server (default options but serviceEventCap)
// behind a loopback listener and waits until it answers a health
// check.
func startService(jobs []svcJob) (*svcState, error) {
	st := &svcState{
		jobs:      jobs,
		srv:       service.New(service.Options{EventCap: serviceEventCap}),
		client:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}},
		serveDone: make(chan struct{}),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = st.srv.Shutdown(context.Background()) // nothing was submitted
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler()}
	go func() {
		defer close(st.serveDone)
		_ = st.hs.Serve(ln) // http.ErrServerClosed once stop shuts it down
	}()
	resp, err := st.client.Get(st.base + "/v1/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("health check: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// stop shuts the HTTP server and the job service down and waits for
// both.
func (st *svcState) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Every job has finished, so a forced close on timeout loses nothing.
	_ = st.hs.Shutdown(ctx)
	<-st.serveDone
	_ = st.srv.Shutdown(ctx)
	st.client.CloseIdleConnections()
}

// svcRecord is one job as a client saw it.
type svcRecord struct {
	err   error
	hit   bool // POST answered from the result cache
	dedup bool // POST deduped onto an in-flight job
	// t0 POST sent, t1 POST answered, t2 Server.Done fired, t3 GET
	// answered.
	t0, t1, t2, t3 time.Time
	view           service.JobView
}

// do sends a request with an optional JSON body and decodes the
// JobView reply.
func (st *svcState) do(method, path string, body []byte) (service.JobView, error) {
	var v service.JobView
	req, err := http.NewRequest(method, st.base+path, bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return v, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("%s %s: decoding job: %w", method, path, err)
	}
	return v, nil
}

// runJob submits job pos, waits on Server.Done and fetches the result.
func (st *svcState) runJob(pos int) svcRecord {
	j := st.jobs[pos]
	path := "/v1/runs"
	if j.Kind == "sweep" {
		path = "/v1/sweeps"
	}
	var rec svcRecord
	rec.t0 = time.Now()
	v, err := st.do(http.MethodPost, path, j.Body)
	rec.t1 = time.Now()
	if err != nil {
		rec.err = err
		return rec
	}
	rec.hit, rec.dedup = v.Cached, v.DedupeOf != ""
	done, ok := st.srv.Done(v.ID)
	if !ok {
		rec.err = fmt.Errorf("job %s unknown to Server.Done", v.ID)
		return rec
	}
	select {
	case <-done:
	case <-time.After(jobWaitLimit):
		rec.err = fmt.Errorf("job %s still running after %s", v.ID, jobWaitLimit)
		return rec
	}
	rec.t2 = time.Now()
	rec.view, rec.err = st.do(http.MethodGet, "/v1/jobs/"+v.ID, nil)
	rec.t3 = time.Now()
	return rec
}

// loop runs the closed loop: serviceClients clients take job-list
// positions in order until dur has elapsed and at least minJobs
// positions were taken. It returns the records of the completed
// positions, a prefix of the job list, and the elapsed time.
func (st *svcState) loop(dur time.Duration, minJobs int) ([]svcRecord, time.Duration) {
	recs := make([]svcRecord, len(st.jobs))
	var next atomic.Int64
	var taken atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(next.Add(1)) - 1
				if pos >= len(st.jobs) || (pos >= minJobs && time.Since(start) >= dur) {
					return
				}
				taken.Add(1)
				recs[pos] = st.runJob(pos)
			}
		}()
	}
	wg.Wait()
	return recs[:taken.Load()], time.Since(start)
}

// sweepView is the result document of a sweep job.
type sweepView struct {
	Series []struct {
		Mode    string `json:"mode"`
		Pattern string `json:"pattern"`
		Points  []struct {
			Load   float64      `json:"load"`
			Result *core.Result `json:"result"`
			Error  string       `json:"error"`
		} `json:"points"`
	} `json:"series"`
}

// jobResults decodes the Results a finished job carries, each with the
// config it ran.
func jobResults(j svcJob, data json.RawMessage) ([]core.Config, []*core.Result, error) {
	if j.Kind == "run" {
		var res core.Result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, nil, fmt.Errorf("decoding result: %w", err)
		}
		return []core.Config{j.Cfg}, []*core.Result{&res}, nil
	}
	var sv sweepView
	if err := json.Unmarshal(data, &sv); err != nil {
		return nil, nil, fmt.Errorf("decoding sweep result: %w", err)
	}
	var (
		cfgs []core.Config
		out  []*core.Result
	)
	for _, s := range sv.Series {
		mode, err := core.ParseMode(s.Mode)
		if err != nil {
			return nil, nil, fmt.Errorf("sweep series: %w", err)
		}
		for _, p := range s.Points {
			if p.Error != "" || p.Result == nil {
				return nil, nil, fmt.Errorf("sweep point failed: %q", p.Error)
			}
			cfg := j.Cfg
			cfg.Mode, cfg.Pattern, cfg.Load = mode, s.Pattern, p.Load
			cfgs = append(cfgs, cfg)
			out = append(out, p.Result)
		}
	}
	return cfgs, out, nil
}

// runService drives service-mixed.
func runService(ctx context.Context, o options, chk *checker) (outcome, error) {
	tr := newTracer(o.trace)
	setupS, st, err := measureSetup(tr, func() (*svcState, func(), error) {
		jobs, err := serviceJobs(o.seed)
		if err != nil {
			return nil, nil, err
		}
		st, err := startService(jobs)
		if err != nil {
			return nil, nil, err
		}
		return st, st.stop, nil
	})
	if err != nil {
		return outcome{}, err
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	minJobs := 1
	switch {
	case o.record > 0:
		dur, minJobs = 0, min(o.record, len(st.jobs))
	case o.trace:
		minJobs = countPositions
	}
	recs, elapsed := st.loop(dur, minJobs)
	st.stop()

	// Check every job outside the timed loop, in position order, so a
	// repeat's original is always checked first.
	var (
		latMS, submitHit, submitMiss, fetch, queueWait, runMS, sweepMS []float64
		// rates holds each run job's simulated cycles per second of
		// started_at → finished_at.
		rates              []float64
		runs, hits, dedups int
		counts             layerCounts
		replay             []core.Config
	)
	byConfig := map[string]string{} // config digest → result digest
	for pos, rec := range recs {
		j := st.jobs[pos]
		if rec.err != nil {
			chk.opError(pos, rec.err)
			continue
		}
		v := rec.view
		if v.State != service.StateDone {
			chk.opError(pos, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error))
			continue
		}
		if got := digestOf(v.Result); got != v.ResultDigest {
			chk.opError(pos, fmt.Errorf("job %s: result_digest %s does not match its result (%s)", v.ID, v.ResultDigest, got))
			continue
		}
		cfgs, results, err := jobResults(j, v.Result)
		if err != nil {
			chk.opError(pos, err)
			continue
		}
		if v.ConfigDigest != "" {
			if want, ok := byConfig[v.ConfigDigest]; ok && want != v.ResultDigest {
				chk.opError(pos, fmt.Errorf("job %s (cached=%v, dedupe_of=%q): digest %s does not echo the original run's %s",
					v.ID, rec.hit, v.DedupeOf, v.ResultDigest, want))
				continue
			}
			byConfig[v.ConfigDigest] = v.ResultDigest
		}
		if !chk.job(pos, v.ResultDigest, cfgs, results) {
			continue
		}

		latMS = append(latMS, msBetween(rec.t0, rec.t3))
		fetch = append(fetch, msBetween(rec.t2, rec.t3))
		primary := !rec.hit && !rec.dedup
		if j.Kind == "run" {
			runs++
			switch {
			case rec.hit:
				hits++
				submitHit = append(submitHit, msBetween(rec.t0, rec.t1))
			default:
				if rec.dedup {
					dedups++
				}
				submitMiss = append(submitMiss, msBetween(rec.t0, rec.t1))
			}
			if j.RepeatOf < 0 {
				replay = append(replay, j.Cfg)
				if pos < countPositions {
					counts.addResult(results[0], j.Cfg.Window)
				}
			}
		}
		if primary && v.StartedAt != nil && v.FinishedAt != nil {
			queueWait = append(queueWait, msBetween(v.SubmittedAt, *v.StartedAt))
			if j.Kind == "run" {
				ms := msBetween(*v.StartedAt, *v.FinishedAt)
				runMS = append(runMS, ms)
				rates = append(rates, ratio(float64(results[0].Cycles), ms/1e3))
			} else {
				sweepMS = append(sweepMS, msBetween(*v.StartedAt, *v.FinishedAt))
			}
		}
		if tr != nil {
			id := tr.add(0, pos, "service.job", rec.t0, rec.t3)
			tr.add(id, pos, "service.submit", rec.t0, rec.t1)
			wait := tr.add(id, pos, "service.wait", rec.t1, rec.t2)
			tr.add(id, pos, "service.fetch", rec.t2, rec.t3)
			if primary && v.StartedAt != nil && v.FinishedAt != nil {
				tr.add(wait, pos, "service.queue", v.SubmittedAt, *v.StartedAt)
				tr.add(wait, pos, "service.run", *v.StartedAt, *v.FinishedAt)
			}
		}
	}
	out := outcome{endToEnd: map[string]metric{"setup_s": {setupS, "s"}}}
	if o.record > 0 {
		return out, nil
	}
	if len(latMS) == 0 {
		return outcome{}, fmt.Errorf("no job completed")
	}
	out.notes = append(out.notes, fmt.Sprintf("%d jobs in %.2f s by %d closed-loop clients; %d run jobs, %d cache hits, %d deduped; latency percentiles over %d samples (%d beyond p95)",
		len(recs), elapsed.Seconds(), serviceClients, runs, hits, dedups, len(latMS), len(latMS)/20))
	if !o.trace {
		out.endToEnd["jobs_per_s"] = metric{float64(len(recs)) / elapsed.Seconds(), "1/s"}
		out.endToEnd["job_latency_p50_ms"] = metric{median(latMS), "ms"}
		out.endToEnd["job_latency_p95_ms"] = metric{quantile(latMS, 0.95), "ms"}
		out.endToEnd["sim_cycles_per_s"] = metric{median(rates), "1/s"}
		return out, nil
	}

	m := newLayerMetrics()
	setupMS, rebuilds, err := replaySetup(replay)
	if err != nil {
		return outcome{}, err
	}
	set(m, "core.setup_ms", median(setupMS))
	set(m, "core.rebuild_ratio", ratio(float64(rebuilds), float64(len(replay))))
	set(m, "service.submit_hit_ms", median(submitHit))
	set(m, "service.submit_miss_ms", median(submitMiss))
	set(m, "service.fetch_ms", median(fetch))
	set(m, "service.queue_wait_ms", quantile(queueWait, 0.95))
	set(m, "service.run_ms", quantile(runMS, 0.95))
	set(m, "service.cache_hit_ratio", ratio(float64(hits), float64(runs)))
	set(m, "service.dedupe_ratio", ratio(float64(dedups), float64(runs)))
	set(m, "sweep.run_ms", median(sweepMS))
	counts.fill(m)
	out.notes = append(out.notes,
		"service-mixed: core.setup_ms and core.rebuild_ratio replay the fresh run configs, in order, through one Runner (the server's own Runners are internal)",
		"service-mixed: counts come from the Result JSON of the fresh run jobs among the first 100 positions; laser and engine counters are not in it and read 0",
		"service-mixed: the phase profiler cannot be set over HTTP, so phase buckets and trace.coverage/overhead read 0")
	out.perLayer = m
	out.trace = &traceDoc{Counts: counts.asMap(), Spans: tr.spans}
	return out, nil
}

// replaySetup times Runner.System over cfgs in order on one Runner and
// counts the calls that had to rebuild rather than Reset.
func replaySetup(cfgs []core.Config) ([]float64, int, error) {
	var (
		r        core.Runner
		last     *core.System
		ms       []float64
		rebuilds int
	)
	for _, cfg := range cfgs {
		if last == nil || !last.ResetCompatible(cfg) {
			rebuilds++
		}
		t0 := time.Now()
		sys, err := r.System(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("replaying set-up: %w", err)
		}
		ms = append(ms, msBetween(t0, time.Now()))
		last = sys
	}
	return ms, rebuilds, nil
}

// msBetween returns b − a in milliseconds.
func msBetween(a, b time.Time) float64 {
	return float64(b.Sub(a).Nanoseconds()) / 1e6
}
