package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// jobListBytes encodes a workload's full job list.
func jobListBytes(t *testing.T, workload string, seed uint64) []byte {
	t.Helper()
	var (
		list any
		err  error
	)
	if workload == wlService {
		list, err = serviceJobs(seed)
	} else {
		list, err = simJobs(workload, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(list)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJobListsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloadNames {
		a := jobListBytes(t, w, 7)
		if b := jobListBytes(t, w, 7); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different job lists", w)
		}
		if c := jobListBytes(t, w, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w)
		}
	}
}

func TestServiceSharesNearStated(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		jobs, err := serviceJobs(seed)
		if err != nil {
			t.Fatal(err)
		}
		var repeats, small, sweeps int
		for pos, j := range jobs {
			switch {
			case j.RepeatOf >= 0:
				repeats++
				o := jobs[j.RepeatOf]
				if gap := pos - j.RepeatOf; gap < repeatMinGap || gap > repeatWindow {
					t.Errorf("seed %d: job %d repeats job %d, %d positions back", seed, pos, j.RepeatOf, gap)
				}
				if o.Kind != "run" || o.RepeatOf >= 0 || !bytes.Equal(o.Body, j.Body) {
					t.Errorf("seed %d: job %d is not an exact repeat of fresh run job %d", seed, pos, j.RepeatOf)
				}
			case j.Kind == "sweep":
				sweeps++
			case j.Cfg.Boards == 4:
				small++
			}
		}
		n := float64(len(jobs))
		for _, c := range []struct {
			name      string
			got, want float64
			tol       float64
		}{
			{"repeat", float64(repeats) / n, 0.25, 0.01},
			{"4x4 shape change", float64(small) / n, 0.10, 0.005},
			{"sweep", float64(sweeps) / n, 0.05, 0.005},
		} {
			if math.Abs(c.got-c.want) > c.tol {
				t.Errorf("seed %d: %s share %.3f, want %.2f±%.3f", seed, c.name, c.got, c.want, c.tol)
			}
		}
	}
}

func TestServiceBodiesParse(t *testing.T) {
	jobs, err := serviceJobs(5)
	if err != nil {
		t.Fatal(err)
	}
	for pos, j := range jobs[:200] {
		if j.Kind == "sweep" {
			var doc sweepDoc
			if err := json.Unmarshal(j.Body, &doc); err != nil {
				t.Fatalf("job %d: %v", pos, err)
			}
			continue
		}
		cfg, err := core.ParseConfig(j.Body)
		if err != nil {
			t.Fatalf("job %d: %v", pos, err)
		}
		if cfg.Digest() != j.Cfg.Digest() {
			t.Errorf("job %d: body does not round-trip to its config", pos)
		}
	}
}

// tinyJob is a sub-second run for checker tests.
func tinyJob() core.Config {
	cfg := core.DefaultConfig(core.PB)
	cfg.Boards, cfg.NodesPerBoard = 4, 4
	cfg.WarmupCycles, cfg.MeasureCycles = 500, 500
	return cfg
}

func TestPlantedWrongDigestIsAFailure(t *testing.T) {
	st := simState{jobs: []core.Config{tinyJob()}, runner: &core.Runner{}}
	chk := &checker{expected: []string{strings.Repeat("0", digestLen)}}
	st.runPass(context.Background(), untracedStep(1), 0, 2, nil, chk)
	if chk.attempted != 2 || chk.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 2 and 2", chk.attempted, chk.failed)
	}

	// The same job passes against its own digest and, with no recording,
	// against the invariants.
	res, err := core.Run(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	d, err := resultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	chk = &checker{expected: []string{d[:digestLen]}}
	st.runPass(context.Background(), untracedStep(1), 0, 2, nil, chk)
	if chk.failed != 0 {
		t.Fatalf("%d failures against the job's own digest", chk.failed)
	}
	chk = &checker{}
	st.runPass(context.Background(), untracedStep(1), 0, 2, nil, chk)
	if chk.failed != 0 {
		t.Fatalf("%d invariant failures on a healthy run", chk.failed)
	}
}

func TestInvariantsFlagUnexpectedTruncation(t *testing.T) {
	cfg := tinyJob()
	cfg.Pattern = traffic.Uniform
	cfg.Load = 0.1
	limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
	ok := &core.Result{Injected: 10, Delivered: 9, Samples: 5, DeliveredFraction: 1, Cycles: 1200}
	if err := invariants(cfg, ok); err != nil {
		t.Fatalf("healthy result rejected: %v", err)
	}
	lowTrunc := *ok
	lowTrunc.Truncated, lowTrunc.Cycles = true, limit
	if err := invariants(cfg, &lowTrunc); err == nil {
		t.Error("truncation far below the saturation bound passed")
	}
	sat := cfg
	sat.Pattern, sat.Mode, sat.Load = traffic.Complement, core.NPNB, 0.9
	if err := invariants(sat, &lowTrunc); err != nil {
		t.Errorf("truncation of a saturated static run rejected: %v", err)
	}
	early := lowTrunc
	early.Cycles = limit - 1
	if err := invariants(sat, &early); err == nil {
		t.Error("truncation before the drain limit passed")
	}
	leak := *ok
	leak.Delivered = 11
	if err := invariants(cfg, &leak); err == nil {
		t.Error("more delivered than injected passed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile(xs, 0.95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 %v, want 4.8", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestServiceLoopEchoesRepeats(t *testing.T) {
	a, b := tinyJob(), tinyJob()
	b.Seed = 2
	jobs := []svcJob{
		{Kind: "run", RepeatOf: -1, Cfg: a},
		{Kind: "run", RepeatOf: -1, Cfg: b},
		{Kind: "sweep", RepeatOf: -1, Cfg: a},
		{Kind: "run", RepeatOf: 0, Cfg: a},
	}
	for i := range jobs {
		body, err := requestBody(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		jobs[i].Body = body
	}
	st, err := startService(jobs)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := st.loop(0, len(jobs))
	st.stop()
	if len(recs) != len(jobs) {
		t.Fatalf("%d records for %d jobs", len(recs), len(jobs))
	}
	for pos, rec := range recs {
		if rec.err != nil || rec.view.State != "done" {
			t.Fatalf("job %d: state %q, err %v", pos, rec.view.State, rec.err)
		}
		cfgs, results, err := jobResults(jobs[pos], rec.view.Result)
		if err != nil {
			t.Fatalf("job %d: %v", pos, err)
		}
		for i := range results {
			if err := invariants(cfgs[i], results[i]); err != nil {
				t.Errorf("job %d: %v", pos, err)
			}
		}
	}
	if len(recs[2].view.Result) == 0 || recs[3].view.ResultDigest != recs[0].view.ResultDigest {
		t.Errorf("repeat digest %s, original %s", recs[3].view.ResultDigest, recs[0].view.ResultDigest)
	}
}
