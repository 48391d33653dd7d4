package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// hierSink stamps per-subsystem spans of a hierarchical run from the
// PhaseChange events each subsystem emits ("warmup" first, "done"
// last; racks 0..R−1, then the fabric) and counts the optical events
// the subsystems would otherwise keep to themselves.
type hierSink struct {
	starts, ends []time.Time
	sent, levels uint64
}

// Emit implements telemetry.Sink.
func (h *hierSink) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.PhaseChange:
		switch ev.Label {
		case "warmup":
			h.starts = append(h.starts, time.Now())
		case "done":
			h.ends = append(h.ends, time.Now())
		}
	case telemetry.PacketLaserTransmit:
		h.sent++
	case telemetry.LaserLevel:
		h.levels++
	}
}

// simPass is what one pass over a simulation job list measured. A
// traced pass opens with a paired prefix: each config of the job list
// runs once untraced (the reference) and then once traced, so the
// tracing overhead compares the same configs at the same moment.
type simPass struct {
	jobs     int
	elapsed  time.Duration
	latMS    []float64 // per measured job: Runner.System/Hier + RunContext
	setupMS  []float64 // per measured job: Runner.System/Hier
	rates    []float64 // per measured job: simulated cycles per second of RunContext
	simNS    int64     // RunContext time, measured jobs
	cycles   uint64    // simulated cycles, measured jobs
	rebuilds int
	// refNS/refCycles cover the untraced reference jobs of the paired
	// prefix, headNS/headCycles their traced twins.
	refNS, headNS         int64
	refCycles, headCycles uint64
	// Phase buckets of the traced flat runs (PhaseProfile).
	drawNS, tickNS, serialNS int64
	// Per-job subsystem spans of traced hierarchical runs.
	rackS, rackMaxS, fabricS []float64
	// counts covers one run of each config of the job list.
	counts layerCounts
}

// simStep is what the i-th job of a pass runs.
type simStep struct {
	pos    int  // job-list position
	traced bool // phase profiler or hierarchy sink attached
	ref    bool // untraced reference job of the paired prefix
	head   bool // first run of the config: feeds the exact counts
}

// untracedStep cycles through the job list.
func untracedStep(n int) func(int) simStep {
	return func(i int) simStep { return simStep{pos: i % n, head: i < n} }
}

// tracedStep runs the paired prefix (reference, traced) per config,
// then cycles traced.
func tracedStep(n int) func(int) simStep {
	return func(i int) simStep {
		if i < 2*n {
			return simStep{pos: i / 2, traced: i%2 == 1, ref: i%2 == 0, head: i%2 == 1}
		}
		return simStep{pos: i % n, traced: true}
	}
}

// runPass runs jobs by step until at least minJobs have completed and
// dur has elapsed.
func (st *simState) runPass(ctx context.Context, step func(int) simStep, dur time.Duration, minJobs int, tr *tracer, chk *checker) simPass {
	var p simPass
	r := st.runner
	start := time.Now()
	for i := 0; i < minJobs || time.Since(start) < dur; i++ {
		s := step(i)
		cfg := st.jobs[s.pos]
		var (
			res  *core.Result
			sys  *core.System
			sink *hierSink
			err  error
		)
		rebuild := false
		t0 := time.Now()
		t1 := t0
		if cfg.MultiTier() {
			var h *core.Hier
			if h, err = r.Hier(cfg); err == nil {
				t1 = time.Now()
				if s.traced {
					sink = &hierSink{}
					h.AttachSink(sink)
				}
				res, err = h.RunContext(ctx)
			}
		} else {
			cfg.PhaseProfile = s.traced
			rebuild = st.last == nil || !st.last.ResetCompatible(cfg)
			if sys, err = r.System(cfg); err == nil {
				st.last = sys
				t1 = time.Now()
				res, err = sys.RunContext(ctx)
			}
		}
		t2 := time.Now()
		p.jobs++
		if err != nil {
			chk.opError(i, err)
			st.last = nil
			continue
		}
		if d, err := resultDigest(res); err != nil {
			chk.opError(i, err)
		} else {
			chk.job(s.pos, d, []core.Config{cfg}, []*core.Result{res})
		}
		simNS := t2.Sub(t1).Nanoseconds()
		if s.ref {
			p.refNS += simNS
			p.refCycles += res.Cycles
			continue
		}

		jobID := tr.id()
		tr.record(jobID, 0, i, "job", t0, t2)
		tr.add(jobID, i, "core.setup", t0, t1)
		simID := tr.add(jobID, i, "core.simulate", t1, t2)
		if rebuild {
			p.rebuilds++
		}
		p.latMS = append(p.latMS, msBetween(t0, t2))
		p.rates = append(p.rates, float64(res.Cycles)/t2.Sub(t1).Seconds())
		p.setupMS = append(p.setupMS, msBetween(t0, t1))
		p.simNS += simNS
		p.cycles += res.Cycles
		if s.head {
			if s.traced {
				p.headNS += simNS
				p.headCycles += res.Cycles
			}
			p.counts.addResult(res, cfg.Window)
			if sys != nil {
				p.counts.addSystem(sys)
			}
		}
		if sys != nil {
			for _, w := range sys.PhaseProfile().Report().Workers {
				p.drawNS += w.DrawNS
				p.tickNS += w.TickNS
				p.serialNS += w.SerialNS
			}
		}
		if sink != nil {
			p.addHierSpans(sink, tr, simID, i)
			if s.head {
				p.counts.laserSent += sink.sent
				p.counts.levelTransitions += sink.levels
			}
		}
	}
	p.elapsed = time.Since(start)
	return p
}

// addHierSpans records one hierarchical job's subsystem spans: every
// subsystem but the last is a rack, the last is the fabric.
func (p *simPass) addHierSpans(sink *hierSink, tr *tracer, parent, job int) {
	n := min(len(sink.starts), len(sink.ends))
	var rackSum, rackMax float64
	for k := 0; k < n; k++ {
		d := sink.ends[k].Sub(sink.starts[k]).Seconds()
		name := "hier.rack"
		if k == n-1 {
			name = "hier.fabric"
			p.fabricS = append(p.fabricS, d)
		} else {
			rackSum += d
			rackMax = max(rackMax, d)
		}
		tr.add(parent, job, name, sink.starts[k], sink.ends[k])
	}
	p.rackS = append(p.rackS, rackSum)
	p.rackMaxS = append(p.rackMaxS, rackMax)
}

// simState is a simulation workload after set-up.
type simState struct {
	jobs   []core.Config
	runner *core.Runner
	// last is the flat system the runner pools, to tell a Reset from a
	// rebuild before each call (nil for hierarchies).
	last *core.System
}

// runSim drives paper64, board64-complement and hier1k: one caller,
// serially, through one pooled Runner.
func runSim(ctx context.Context, o options, chk *checker) (outcome, error) {
	tr := newTracer(o.trace)
	setupS, st, err := measureSetup(tr, func() (simState, func(), error) {
		jobs, err := simJobs(o.workload, o.seed)
		if err != nil {
			return simState{}, nil, err
		}
		st := simState{jobs: jobs, runner: &core.Runner{}}
		if jobs[0].MultiTier() {
			_, err = st.runner.Hier(jobs[0])
		} else {
			st.last, err = st.runner.System(jobs[0])
		}
		return st, nil, err
	})
	if err != nil {
		return outcome{}, err
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	out := outcome{endToEnd: map[string]metric{"setup_s": {setupS, "s"}}}

	if o.record > 0 {
		st.runPass(ctx, untracedStep(len(st.jobs)), 0, o.record, nil, chk)
		return out, nil
	}
	if !o.trace {
		p := st.runPass(ctx, untracedStep(len(st.jobs)), dur, 1, nil, chk)
		if p.jobs == 0 || len(p.latMS) == 0 {
			return outcome{}, fmt.Errorf("no job completed")
		}
		out.endToEnd["jobs_per_s"] = metric{float64(p.jobs) / p.elapsed.Seconds(), "1/s"}
		out.endToEnd["job_latency_p50_ms"] = metric{median(p.latMS), "ms"}
		out.endToEnd["job_latency_p95_ms"] = metric{quantile(p.latMS, 0.95), "ms"}
		out.endToEnd["sim_cycles_per_s"] = metric{median(p.rates), "1/s"}
		out.notes = append(out.notes, fmt.Sprintf("%d jobs in %.2f s; job latency percentiles over %d samples (%d beyond p95)",
			p.jobs, p.elapsed.Seconds(), len(p.latMS), len(p.latMS)/20))
		return out, nil
	}

	n := len(st.jobs)
	t := st.runPass(ctx, tracedStep(n), dur, 2*n, tr, chk)
	m := newLayerMetrics()
	set(m, "core.setup_ms", median(t.setupMS))
	set(m, "core.rebuild_ratio", ratio(float64(t.rebuilds), float64(len(t.setupMS))))
	untracedNS := ratio(float64(t.refNS), float64(t.refCycles))
	set(m, "core.simulate_ns_per_cycle", untracedNS)
	set(m, "trace.overhead", ratio(float64(t.headNS), float64(t.headCycles))/untracedNS-1)
	hier := st.jobs[0].MultiTier()
	if hier {
		set(m, "hier.rack_s", median(t.rackS))
		set(m, "hier.rack_max_s", median(t.rackMaxS))
		set(m, "hier.fabric_s", median(t.fabricS))
		out.notes = append(out.notes,
			"hier1k: Hier turns the phase profiler off in its subsystems, so the phase buckets and trace.coverage read 0",
			"hier1k: optical counts come from the PhaseChange sink's laser events; engine events are not observable from outside (sim.events_per_cycle reads 0)",
			"hier1k: trace.overhead is the cost of the attached sink, which sees every packet event")
	} else {
		cyc := float64(t.cycles)
		set(m, "traffic.draw_ns_per_cycle", ratio(float64(t.drawNS), cyc))
		set(m, "tick.ns_per_cycle", ratio(float64(t.tickNS), cyc))
		set(m, "serial.ns_per_cycle", ratio(float64(t.serialNS), cyc))
		set(m, "trace.coverage", ratio(float64(t.drawNS+t.tickNS+t.serialNS), float64(t.simNS)))
		out.notes = append(out.notes,
			"the phase profiler turns off idle fast-forward, so per-layer numbers on idle-heavy jobs come from the slower stepping path")
	}
	t.counts.fill(m)
	out.notes = append(out.notes, fmt.Sprintf("traced pass: %d jobs in %.2f s; counts over one run of each of the %d configs", t.jobs, t.elapsed.Seconds(), n))
	out.perLayer = m
	out.trace = &traceDoc{Counts: t.counts.asMap(), Spans: tr.spans}
	return out, nil
}
