package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// httpServer spins up the full API over a fresh service.
func httpServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		shutdown(t, s)
	})
	return s, ts
}

func decodeJob(t *testing.T, r io.Reader) JobView {
	t.Helper()
	var v JobView
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func decodeError(t *testing.T, r io.Reader) errorBody {
	t.Helper()
	var e errorBody
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return e
}

// pollDone GETs the job until it is terminal.
func pollDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		v := decodeJob(t, resp.Body)
		resp.Body.Close()
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// TestHTTPRunLifecycle drives the full happy path over the wire:
// submit, poll, stream events, and hit the cache on resubmission.
func TestHTTPRunLifecycle(t *testing.T) {
	_, ts := httpServer(t, Options{Workers: 2})

	body := `{"Mode":"P-B","Boards":4,"NodesPerBoard":4,"Window":500,` +
		`"WarmupCycles":1500,"MeasureCycles":1500,"DrainLimitCycles":30000,"Load":0.4}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	v := decodeJob(t, resp.Body)
	resp.Body.Close()
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job state %s", v.State)
	}

	// The event stream blocks until the job completes, then terminates;
	// every line must be a JSON event in the stable schema.
	events, err := http.Get(ts.URL + v.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	if ct := events.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var lines, phases int
	sc := bufio.NewScanner(events.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var ev struct {
			Cycle *uint64 `json:"cycle"`
			Kind  string  `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Cycle == nil || ev.Kind == "" {
			t.Fatalf("event line missing cycle/kind: %s", sc.Text())
		}
		if ev.Kind == "phase" {
			phases++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("event stream was empty")
	}
	if phases < 3 {
		t.Fatalf("saw %d phase events, want >= 3 (warmup/measure/drain)", phases)
	}

	done := pollDone(t, ts.URL, v.ID)
	if done.State != StateDone || done.Result == nil || done.ResultDigest == "" {
		t.Fatalf("finished job: %+v", done)
	}

	// Identical resubmission: answered from the cache with the same
	// result digest, HTTP 200 (already terminal).
	resp2, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status %d, want 200", resp2.StatusCode)
	}
	v2 := decodeJob(t, resp2.Body)
	if !v2.Cached || v2.ResultDigest != done.ResultDigest {
		t.Fatalf("cached resubmission: %+v", v2)
	}

	// The jobs listing shows both submissions.
	list, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var jl struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(list.Body).Decode(&jl); err != nil {
		t.Fatal(err)
	}
	if len(jl.Jobs) != 2 {
		t.Fatalf("listing has %d jobs, want 2", len(jl.Jobs))
	}
}

// TestHTTPValidationErrors: malformed and invalid submissions get
// structured 4xx errors with per-field diagnostics.
func TestHTTPValidationErrors(t *testing.T) {
	_, ts := httpServer(t, Options{Workers: 1})

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, resp.Body); e.Error == "" {
		t.Fatal("malformed JSON error body empty")
	}
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"Load":-2,"Window":0,"Pattern":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config status %d, want 400", resp.StatusCode)
	}
	e := decodeError(t, resp.Body)
	got := make(map[string]bool)
	for _, f := range e.Fields {
		got[f.Field] = true
	}
	for _, want := range []string{"Load", "Window", "Pattern"} {
		if !got[want] {
			t.Errorf("fields %v missing %s", e.Fields, want)
		}
	}
}

// TestHTTPWorkersFieldIgnored: a run body carrying the deprecated
// Workers field, however large, simulates exactly the run without it —
// same config digest, same result digest — with the cache off so both
// jobs really run.
func TestHTTPWorkersFieldIgnored(t *testing.T) {
	_, ts := httpServer(t, Options{Workers: 1, CacheCap: -1})
	const shape = `"Mode":"P-B","Boards":4,"NodesPerBoard":4,"Window":500,` +
		`"WarmupCycles":1500,"MeasureCycles":1500,"DrainLimitCycles":30000,"Load":0.4`
	run := func(body string) JobView {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, want 202", body, resp.StatusCode)
		}
		v := decodeJob(t, resp.Body)
		resp.Body.Close()
		done := pollDone(t, ts.URL, v.ID)
		if done.State != StateDone || done.Cached || done.ResultDigest == "" {
			t.Fatalf("job for %s: %+v", body, done)
		}
		return done
	}
	with := run(`{` + shape + `,"Workers":64}`)
	without := run(`{` + shape + `}`)
	if with.ConfigDigest != without.ConfigDigest {
		t.Errorf("config digest with Workers %s, without %s", with.ConfigDigest, without.ConfigDigest)
	}
	if with.ResultDigest != without.ResultDigest {
		t.Errorf("result digest with Workers %s, without %s", with.ResultDigest, without.ResultDigest)
	}
}

// TestHTTPSweep: sweep submission validates its axes and returns one
// series per (pattern, mode) with paper mode labels.
func TestHTTPSweep(t *testing.T) {
	_, ts := httpServer(t, Options{Workers: 1})

	// Missing axes → one field error each.
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sweep status %d, want 400", resp.StatusCode)
	}
	e := decodeError(t, resp.Body)
	resp.Body.Close()
	if len(e.Fields) != 3 {
		t.Fatalf("empty sweep reported %v, want patterns/modes/loads", e.Fields)
	}

	// Bad mode label and load range are located by index.
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(
		`{"patterns":["uniform"],"modes":["P-B","bogus"],"loads":[0.2,1.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	e = decodeError(t, resp.Body)
	resp.Body.Close()
	fields := make([]string, 0, len(e.Fields))
	for _, f := range e.Fields {
		fields = append(fields, f.Field)
	}
	joined := strings.Join(fields, ",")
	if !strings.Contains(joined, "modes[1]") || !strings.Contains(joined, "loads[1]") {
		t.Fatalf("indexed field errors missing: %v", fields)
	}

	// A valid tiny sweep completes with labeled series.
	body := `{"base":{"Boards":4,"NodesPerBoard":4,"Window":500,` +
		`"WarmupCycles":1500,"MeasureCycles":1500,"DrainLimitCycles":30000},` +
		`"patterns":["uniform"],"modes":["NP-NB","P-B"],"loads":[0.2,0.4]}`
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit status %d, want 202", resp.StatusCode)
	}
	v := decodeJob(t, resp.Body)
	resp.Body.Close()
	done := pollDone(t, ts.URL, v.ID)
	if done.State != StateDone {
		t.Fatalf("sweep state %s (error %q)", done.State, done.Error)
	}
	var result sweepResult
	if err := json.Unmarshal(done.Result, &result); err != nil {
		t.Fatal(err)
	}
	if len(result.Series) != 2 {
		t.Fatalf("sweep produced %d series, want 2", len(result.Series))
	}
	for _, sr := range result.Series {
		if sr.Mode != "NP-NB" && sr.Mode != "P-B" {
			t.Fatalf("series mode label %q", sr.Mode)
		}
		if len(sr.Points) != 2 {
			t.Fatalf("series %s/%s has %d points, want 2", sr.Mode, sr.Pattern, len(sr.Points))
		}
		for _, p := range sr.Points {
			if p.Error != "" || len(p.Result) == 0 {
				t.Fatalf("point %v: error %q, result %d bytes", p.Load, p.Error, len(p.Result))
			}
		}
	}
}

// TestHTTPCancelAndNotFound covers DELETE semantics and 404s.
func TestHTTPCancelAndNotFound(t *testing.T) {
	s, ts := httpServer(t, Options{Workers: 1})

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404", path, resp.StatusCode)
		}
	}

	v, err := s.SubmitRun(endlessCfg(21))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, v.ID)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d, want 200", resp.StatusCode)
	}
	done := pollDone(t, ts.URL, v.ID)
	if done.State != StateCancelled {
		t.Fatalf("state %s after DELETE, want cancelled", done.State)
	}
}

// TestHTTPEventFilterAndSSE: ?kinds= filters the stream, a bad kind is
// a 400, and Accept: text/event-stream switches the framing.
func TestHTTPEventFilterAndSSE(t *testing.T) {
	s, ts := httpServer(t, Options{Workers: 1})
	v, err := s.SubmitRun(fastCfg(core.PB, 22))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v.ID)

	resp, err := http.Get(ts.URL + v.EventsURL + "?kinds=phase")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var n int
	for sc.Scan() {
		n++
		if !strings.Contains(sc.Text(), `"kind":"phase"`) {
			t.Fatalf("filtered stream leaked %s", sc.Text())
		}
	}
	resp.Body.Close()
	if n < 3 {
		t.Fatalf("phase filter returned %d events, want >= 3", n)
	}

	resp, err = http.Get(ts.URL + v.EventsURL + "?kinds=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind filter status %d, want 400", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+v.EventsURL+"?kinds=phase", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE line %q lacks data: prefix", line)
		}
	}
}

// TestHTTPHealth: the health endpoint reports capacity and drain state.
func TestHTTPHealth(t *testing.T) {
	s, ts := httpServer(t, Options{Workers: 3, QueueCap: 5})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status   string `json:"status"`
		Workers  int    `json:"workers"`
		QueueCap int    `json:"queue_cap"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 || h.QueueCap != 5 {
		t.Fatalf("health = %+v", h)
	}
	if s.Workers() != 3 {
		t.Fatalf("Workers() = %d", s.Workers())
	}
}

// TestHTTPQueueFull503: an overfull queue maps to 503 with Retry-After.
func TestHTTPQueueFull503(t *testing.T) {
	s, ts := httpServer(t, Options{Workers: 1, QueueCap: 1})
	blocker, err := s.SubmitRun(endlessCfg(23))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, blocker.ID)
	if _, err := s.SubmitRun(fastCfg(core.PB, 24)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"Seed":%d}`, 25)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 lacks Retry-After")
	}
	s.Cancel(blocker.ID)
	waitDone(t, s, blocker.ID)
}

// TestHTTPMultiTierRun submits a schema v2 (hierarchical) config and
// checks the tier-aware surface: the schema version echoes on the job
// view, the result carries the per-tier breakdown, and invalid tier
// fields come back as indexed 400 diagnostics.
func TestHTTPMultiTierRun(t *testing.T) {
	_, ts := httpServer(t, Options{Workers: 1})

	body := `{"schema_version":2,` +
		`"tiers":[{"Boards":4,"NodesPerBoard":2},{"Boards":3}],` +
		`"Mode":"P-B","Window":500,"WarmupCycles":1000,"MeasureCycles":1000,"Load":0.3}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	v := decodeJob(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if v.SchemaVersion != 2 {
		t.Errorf("JobView schema_version = %d, want 2", v.SchemaVersion)
	}

	done := pollDone(t, ts.URL, v.ID)
	if done.State != StateDone {
		t.Fatalf("job state %s (%s), want done", done.State, done.Error)
	}
	if done.SchemaVersion != 2 {
		t.Errorf("terminal JobView schema_version = %d, want 2", done.SchemaVersion)
	}
	var res core.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if len(res.Tiers) != 2 {
		t.Fatalf("result Tiers length %d, want 2", len(res.Tiers))
	}
	if res.Tiers[0].Systems != 3 {
		t.Errorf("tier 0 systems = %d, want 3 racks", res.Tiers[0].Systems)
	}

	// Flat submissions keep echoing version 1.
	flat, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(
		`{"Boards":4,"NodesPerBoard":2,"Window":500,"WarmupCycles":500,"MeasureCycles":500,"Load":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	fv := decodeJob(t, flat.Body)
	flat.Body.Close()
	if fv.SchemaVersion != 1 {
		t.Errorf("flat JobView schema_version = %d, want 1", fv.SchemaVersion)
	}

	// Invalid tier fields are located by index in the structured 400.
	bad, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(
		`{"tiers":[{"Boards":4,"NodesPerBoard":2},{"Boards":3,"Wavelengths":7}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid tier submit status %d, want 400", bad.StatusCode)
	}
	eb := decodeError(t, bad.Body)
	found := false
	for _, fe := range eb.Fields {
		if fe.Field == "Tiers[1].Wavelengths" {
			found = true
		}
	}
	if !found {
		t.Errorf("400 fields %v missing Tiers[1].Wavelengths", eb.Fields)
	}

	// Unknown schema versions are rejected with the same envelope.
	vbad, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"schema_version":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer vbad.Body.Close()
	if vbad.StatusCode != http.StatusBadRequest {
		t.Fatalf("schema_version 3 submit status %d, want 400", vbad.StatusCode)
	}
}
