package core

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// This file pins the StepN stepping contract at its edges: the no-op
// batch, batches that cross measurement-phase and run-limit
// boundaries, batch-size invariance (including fast-forward stretches
// split at batch seams), mid-run rate changes between batches, and
// stepping past Done. The no-op and past-Done cases run at Workers 1
// and 2: the field is accepted and ignored, so both must behave alike.

// TestStepNZero pins the no-op batch: StepN(0) returns the last
// simulated cycle and advances nothing — no cycle, no injector draw.
func TestStepNZero(t *testing.T) {
	for _, workers := range []int{1, 2} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := fastConfig(PB)
			cfg.Workers = workers
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Controllers().Start()
			if got := s.StepN(5); got != 4 {
				t.Fatalf("StepN(5) from cold = %d, want 4 (cycles 0..4)", got)
			}
			cyc, inj := s.Cycle(), s.InjectedCount()
			if got := s.StepN(0); got != cyc {
				t.Errorf("StepN(0) = %d, want last cycle %d", got, cyc)
			}
			if s.Cycle() != cyc || s.InjectedCount() != inj {
				t.Errorf("StepN(0) advanced state: cycle %d->%d, injected %d->%d",
					cyc, s.Cycle(), inj, s.InjectedCount())
			}
			if got := s.StepN(1); got != cyc+1 {
				t.Errorf("StepN(1) after StepN(0) = %d, want %d", got, cyc+1)
			}
		})
	}
}

// TestStepNStopsAtDone checks that a batch far larger than the run
// stops early, on the cycle the measurement reaches Done — the same
// cycle a window-batched Run ends on.
func TestStepNStopsAtDone(t *testing.T) {
	cfg := fastConfig(PB)
	const huge = 10_000_000
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Controllers().Start()
	last := s.StepN(huge)
	if s.Measurement().Phase() != stats.Done {
		t.Fatalf("StepN(%d) returned at cycle %d in phase %v, want Done",
			huge, last, s.Measurement().Phase())
	}
	if last >= huge-1 {
		t.Fatalf("StepN(%d) consumed the whole batch (cycle %d) instead of stopping at Done", huge, last)
	}
	if got := s.Cycle(); got != last {
		t.Errorf("StepN returned %d but Cycle() = %d", last, got)
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cycles != last {
		t.Errorf("StepN stopped at cycle %d, Run at %d", last, ref.Cycles)
	}
}

// driveChunks steps a fresh system of cfg to Done (or the run limit) in
// batches of chunk cycles, calling between(s) after every batch, and
// returns the final cycle and packet counters plus the telemetry
// stream.
func driveChunks(t *testing.T, cfg Config, chunk uint64, between func(*System)) ([]uint64, *captureSink) {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureSink{}
	s.AttachSink(sink)
	s.Controllers().Start()
	limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
	for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
		s.StepN(chunk)
		if between != nil {
			between(s)
		}
	}
	return []uint64{s.Cycle(), s.InjectedCount(), s.DeliveredCount()}, sink
}

// assertSameDrive fails unless two driven runs end in the same state
// with the same telemetry stream.
func assertSameDrive(t *testing.T, label string, refState []uint64, refSink *captureSink, state []uint64, sink *captureSink) {
	t.Helper()
	for i, name := range []string{"cycle", "injected", "delivered"} {
		if state[i] != refState[i] {
			t.Errorf("%s: final %s %d, reference %d", label, name, state[i], refState[i])
		}
	}
	if len(sink.evs) != len(refSink.evs) {
		t.Fatalf("%s: %d telemetry events, reference %d", label, len(sink.evs), len(refSink.evs))
	}
	for i := range refSink.evs {
		if sink.evs[i] != refSink.evs[i] {
			t.Fatalf("%s: event %d diverges\nref: %+v\ngot: %+v", label, i, refSink.evs[i], sink.evs[i])
		}
	}
}

// TestStepNChunkInvariance drives identical runs with one giant batch,
// window-sized batches, and odd 97-cycle batches. The telemetry stream
// and the packet counters must be bit-identical in all cases: batch
// seams must not perturb the simulation, including where they split an
// idle stretch the engine would otherwise fast-forward in one piece,
// and where a single batch crosses the warmup/measure/drain boundaries
// that per-window stepping hits exactly. The low injection rate keeps
// the system idle often enough that the fast-forward path genuinely
// engages.
func TestStepNChunkInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three full runs")
	}
	cfg := fastConfig(PB)
	cfg.InjectionRate = 0.002
	refState, refSink := driveChunks(t, cfg, 10_000_000, nil)
	if len(refSink.evs) == 0 {
		t.Fatal("reference run emitted no telemetry")
	}
	for _, chunk := range []uint64{97, 500} {
		state, sink := driveChunks(t, cfg, chunk, nil)
		assertSameDrive(t, fmt.Sprintf("chunk=%d", chunk), refState, refSink, state, sink)
	}
}

// TestSetInjectionRateMidRun changes the injection rate twice mid-run,
// mid-window both times, and checks the change applies from the next
// cycle whatever the batching: a run stepped in 1234- and 777-cycle
// batches (whose idle stretches fast-forward) must match one stepped a
// cycle at a time with the changes at the same cycles, and the heavy
// segment must actually inject more than the light ones.
func TestSetInjectionRateMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("two full step-driven runs")
	}
	cfg := fastConfig(PB)
	cfg.InjectionRate = 0.002
	// The rate changes land after cycles 1233 and 2010.
	rates := map[uint64]float64{1233: 0.09, 2010: 0.004}
	var injected []uint64
	change := func(s *System) {
		if r, ok := rates[s.Cycle()]; ok {
			injected = append(injected, s.InjectedCount())
			s.SetInjectionRate(r)
		}
	}
	refState, refSink := driveChunks(t, cfg, 1, change)
	if len(injected) != 2 {
		t.Fatalf("cycle-stepped run applied %d rate changes, want 2", len(injected))
	}
	light, heavy := injected[0], injected[1]-injected[0]
	if heavy <= light {
		t.Errorf("heavy segment injected %d packets over 777 cycles, light %d over 1234; rate change had no effect", heavy, light)
	}

	// Batches of 1234 then 777 cycles, then window-sized to the end.
	batches := []uint64{1234, 777}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureSink{}
	s.AttachSink(sink)
	s.Controllers().Start()
	s.StepN(batches[0])
	s.SetInjectionRate(rates[1233])
	s.StepN(batches[1])
	s.SetInjectionRate(rates[2010])
	limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
	for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
		s.StepN(cfg.Window)
	}
	state := []uint64{s.Cycle(), s.InjectedCount(), s.DeliveredCount()}
	assertSameDrive(t, "batched", refState, refSink, state, sink)
}

// TestStepPastDone pins stepping beyond the end of the measurement
// methodology: once the phase is Done, Step and StepN keep advancing
// (exactly one cycle per call — StepN stops early while Done) without
// panicking or breaking packet conservation, so custom drivers may
// overrun the schedule harmlessly.
func TestStepPastDone(t *testing.T) {
	for _, workers := range []int{1, 2} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := fastConfig(PB)
			cfg.Workers = workers
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Controllers().Start()
			limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
			for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
				s.StepN(cfg.Window)
			}
			if s.Measurement().Phase() != stats.Done {
				t.Fatalf("run truncated at cycle %d before Done", s.Cycle())
			}
			for i := 0; i < 3; i++ {
				prev := s.Cycle()
				if got := s.Step(); got != prev+1 {
					t.Fatalf("Step() past Done = %d, want %d", got, prev+1)
				}
			}
			prev := s.Cycle()
			if got := s.StepN(10); got != prev+1 {
				t.Errorf("StepN(10) past Done = %d, want %d (stops after one cycle while Done)", got, prev+1)
			}
			if inj, del, drop := s.InjectedCount(), s.DeliveredCount(), s.DroppedByFault(); del+drop > inj {
				t.Errorf("conservation broken past Done: injected %d < delivered %d + dropped %d", inj, del, drop)
			}
		})
	}
}
