package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestPhaseProfileDeterminism runs the same configuration with the
// profiler off and on and asserts (a) the Results are bit-identical —
// the profiler must never perturb the simulation — and (b) the
// profiler's series exist, cover every flushed window, and are
// monotone (they accumulate).
func TestPhaseProfileDeterminism(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Pattern = "complement"
	cfg.Load = 0.5
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.PhaseProfile = true
	s, err := NewSystem(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Error("profiled Result differs from unprofiled run")
	}
	pp := s.PhaseProfile()
	if pp == nil {
		t.Fatal("PhaseProfile() is nil with Config.PhaseProfile set")
	}
	rep := pp.Report()
	if rep.Epochs == 0 || rep.Cycles == 0 {
		t.Fatalf("nothing profiled: %+v", rep)
	}
	if len(rep.Workers) != 1 {
		t.Fatalf("report has %d entries, want 1", len(rep.Workers))
	}
	w := rep.Workers[0]
	if w.Boards != c.Boards {
		t.Errorf("report covers %d boards, want %d", w.Boards, c.Boards)
	}
	if w.DrawNS <= 0 || w.TickNS <= 0 || w.SerialNS <= 0 {
		t.Errorf("a phase recorded no time: %+v", w)
	}
	reg := pp.Registry()
	marks := len(reg.Windows())
	if marks == 0 {
		t.Fatal("no flushed windows")
	}
	for _, name := range reg.SeriesNames() {
		ts := reg.Lookup(name)
		if ts.Len() != marks {
			t.Errorf("series %s has %d samples, want %d", name, ts.Len(), marks)
		}
		vals := ts.Values()
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				t.Errorf("series %s not monotone at %d: %v < %v", name, i, vals[i], vals[i-1])
				break
			}
		}
	}
}

// TestPhaseProfileOffNoAllocs asserts the profiler's disabled path
// (the default) keeps the steady-state cycle loop allocation-free —
// the same invariant TestTelemetryOffStepNoAllocs holds for the
// telemetry layer, now with the phase hooks compiled into the step.
func TestPhaseProfileOffNoAllocs(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Load = 0.5
	// Stay in the warm-up phase for the whole test: measurement-phase
	// latency sampling appends to a growing slice by design.
	cfg.WarmupCycles = 1 << 30
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.PhaseProfile() != nil {
		t.Fatal("profiler enabled without Config.PhaseProfile")
	}
	// Controllers stay un-started: RC processes allocate protocol
	// messages at window boundaries, outside the per-cycle path.
	for i := 0; i < 20000; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() { s.Step() })
	if allocs != 0 {
		t.Errorf("phase-profile-off Step allocates %.2f/op, want 0", allocs)
	}
}

// TestPhaseProfileOnStepNoAllocs pins the enabled steady-state cost:
// the accumulators are fixed arrays and the flush pushes into
// preallocated rings, so even the profiled cycle loop allocates
// nothing between window boundaries.
func TestPhaseProfileOnStepNoAllocs(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Load = 0.5
	cfg.WarmupCycles = 1 << 30
	cfg.PhaseProfile = true
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() { s.Step() })
	if allocs != 0 {
		t.Errorf("phase-profile-on Step allocates %.2f/op, want 0", allocs)
	}
}

func TestPhaseAggregate(t *testing.T) {
	var agg PhaseAggregate
	agg.Add(PhaseReport{
		Epochs: 2, Cycles: 1000,
		Workers: []PhaseWorkerStats{{Boards: 4, DrawNS: 10, TickNS: 30, SerialNS: 20}},
	})
	agg.Add(PhaseReport{
		Epochs: 3, Cycles: 1500,
		Workers: []PhaseWorkerStats{{Boards: 4, DrawNS: 1, TickNS: 1, SerialNS: 1}},
	})
	agg.Add(PhaseReport{}) // a run with the profiler off
	if agg.Runs() != 3 {
		t.Fatalf("runs = %d", agg.Runs())
	}
	r := agg.Report()
	if r.Epochs != 5 || r.Cycles != 2500 {
		t.Fatalf("merged windows/cycles = %d/%d", r.Epochs, r.Cycles)
	}
	want := []PhaseWorkerStats{{Boards: 4, DrawNS: 11, TickNS: 31, SerialNS: 21}}
	if !reflect.DeepEqual(r.Workers, want) {
		t.Fatalf("merged totals = %+v, want %+v", r.Workers, want)
	}

	var buf strings.Builder
	FormatPhaseReport(&buf, r)
	out := buf.String()
	for _, want := range []string{"4 boards", "5 windows", "2500 cycles", "draw", "tick", "serial", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	FormatPhaseReport(&empty, PhaseReport{})
	if !strings.Contains(empty.String(), "no data") {
		t.Errorf("empty report = %q", empty.String())
	}
}
