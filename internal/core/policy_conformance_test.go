package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// This file is the policy conformance battery: every policy registered
// in internal/policy is pushed through the engine's core invariants —
// run-to-run determinism, faulted flit conservation, the supply-power
// bound, and allocation-freedom of the steady-state paths. The test
// list comes from policy.Names(), so registering a new policy enrolls
// it here with no test changes.

// conformanceConfig is the battery's reference operating point: the
// fast 16-node system under enough load that every policy has both
// idle links to shut down and congested ones to boost.
func conformanceConfig(mode Mode, name string) Config {
	cfg := fastConfig(mode)
	cfg.Pattern = traffic.Complement
	cfg.Load = 0.4
	cfg.Seed = 99
	cfg.Policy = &policy.Spec{Name: name}
	return cfg
}

// TestPolicyConformanceDeterminism runs every registered policy twice
// in all four network modes and checks the runs are bit-identical. Any
// divergence means a policy broke the purity contract (internal
// randomness, wall-clock input, or map iteration order).
func TestPolicyConformanceDeterminism(t *testing.T) {
	for _, name := range policy.Names() {
		for _, mode := range Modes() {
			name, mode := name, mode
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				cfg := conformanceConfig(mode, name)
				first, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				second, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("policy %s mode %s: repeated run diverged:\nfirst:  %+v\nsecond: %+v",
						name, mode, first, second)
				}
			})
		}
	}
}

// conformanceFaultSpec injects a permanent laser kill plus transient
// degradation and control-plane drops — the scenario where a policy
// could most plausibly leak or double-count flits.
func conformanceFaultSpec() *fault.Spec {
	return &fault.Spec{
		Seed: 7,
		Events: []fault.Event{
			{At: 2500, Kind: fault.KindLaserKill, Board: 1, Wavelength: 2, Dest: 3},
		},
		LaserDegradeRate: 0.005,
		DegradeCycles:    200,
		CtrlDropRate:     0.02,
	}
}

// TestPolicyConformanceFaultedConservation drives each policy through
// a faulted run to quiescence and checks the two physical invariants
// no policy may break: exact flit conservation (injected = delivered +
// dropped, every queue empty) and the supply-power bound (no schedule
// can average above all-populated-lasers-at-top).
func TestPolicyConformanceFaultedConservation(t *testing.T) {
	for _, name := range policy.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := conformanceConfig(PB, name)
			cfg.Faults = conformanceFaultSpec()
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Controllers().Start()
			limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles
			for s.Measurement().Phase() != stats.Done && s.Cycle() < limit {
				s.Step()
			}
			s.SetInjectionRate(0)
			for i := 0; i < 200000 && !s.Quiescent(); i++ {
				s.Step()
			}
			if !s.Quiescent() {
				t.Fatalf("policy %s: not quiescent after drain: injected %d delivered %d dropped %d",
					name, s.InjectedCount(), s.DeliveredCount(), s.DroppedByFault())
			}
			if err := s.Fabric().CheckInvariants(); err != nil {
				t.Fatalf("policy %s: %v", name, err)
			}
			if supply, bound := s.Fabric().Meter().AvgSupplyMW(), s.Fabric().SupplyBoundMW(); supply > bound {
				t.Fatalf("policy %s: supply %f exceeds all-top bound %f", name, supply, bound)
			}
			// Faulted runs must also be repeatable: the fault injector's
			// draws and the policy's decisions depend only on the seed.
			first, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("policy %s: repeated faulted run diverged", name)
			}
		})
	}
}

// TestPolicyConformanceStepNoAllocs repeats the telemetry-off
// steady-state allocation gate for every policy: selecting a policy
// must not perturb the allocation-free per-cycle hot path (the
// oracle's profiling pre-pass runs inside NewSystem, before the loop
// under test).
func TestPolicyConformanceStepNoAllocs(t *testing.T) {
	for _, name := range policy.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := conformanceConfig(PB, name)
			// Stay in warm-up for the whole test: measurement-phase latency
			// sampling appends to a growing slice by design. The margin must
			// stay finite — the oracle's profiling pre-pass simulates
			// WarmupCycles + MeasureCycles before the loop under test.
			cfg.WarmupCycles = 100000
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Controllers stay un-started: window-boundary protocol messages
			// are outside the per-cycle path under test (the policy-call
			// paths get their own gate below).
			for i := 0; i < 20000; i++ {
				s.Step()
			}
			allocs := testing.AllocsPerRun(2000, func() { s.Step() })
			if allocs != 0 {
				t.Errorf("policy %s: telemetry-off Step allocates %.2f/op, want 0", name, allocs)
			}
		})
	}
}

// TestPolicyConformanceCallNoAllocs gates the policy calls themselves:
// once warm, Power and Bandwidth must be allocation-free — they run
// once per laser (DPM) or per board pair (DBR) every window on the
// controller's serial critical path.
func TestPolicyConformanceCallNoAllocs(t *testing.T) {
	const boards = 4
	for _, name := range policy.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			lad := power.PaperLadder()
			pol, err := policy.New(&policy.Spec{Name: name}, policy.Params{
				Board:      1,
				Boards:     boards,
				Thresholds: ctrl.PaperPB(),
				Ladder:     lad,
				MaxHold:    4,
				Window:     2000,
				Seed:       1,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := policy.BandwidthCtx{
				StaticOwner:  func(w int) int { return (1 + w) % boards },
				LaserHealthy: func(s, w int) bool { return true },
			}
			obs := make([]policy.ChanObs, boards)
			assign := make([]int, boards)
			powerObs := policy.LinkObs{Wavelength: 1, Dest: 2, Level: 1, LinkUtil: 0.5, BufUtil: 0.1, QueueLen: 1}
			window := uint64(0)
			call := func() {
				window++
				pol.Power(powerObs)
				for w := 1; w < boards; w++ {
					obs[w] = policy.ChanObs{Holder: ctx.StaticOwner(w), LinkUtil: 0.6, BufUtil: 0.2}
					assign[w] = obs[w].Holder
				}
				ctx.Window = window
				ctx.Repairs = 0
				pol.Bandwidth(&ctx, obs, assign)
			}
			// Warm the policy's lazily built scratch (EWMA state, the
			// oracle's one-time plan) before measuring.
			for i := 0; i < 3; i++ {
				call()
			}
			if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
				t.Errorf("policy %s: Power+Bandwidth allocate %.2f/op once warm, want 0", name, allocs)
			}
		})
	}
}

// TestPaperPolicyMatchesNilPolicy pins the central compatibility
// promise: selecting the paper policy explicitly — by name, by JSON
// spec with default knobs, or sloppily capitalized — is bit-identical
// to not selecting a policy at all.
func TestPaperPolicyMatchesNilPolicy(t *testing.T) {
	base := fastConfig(PB)
	base.Pattern = traffic.Complement
	base.Load = 0.4
	base.Seed = 4242
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, selector := range []string{"paper", " PAPER ", `{"name":"paper"}`} {
		spec, err := policy.ParseSpec(selector)
		if err != nil {
			t.Fatalf("selector %q: %v", selector, err)
		}
		cfg := base
		cfg.Policy = spec
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("selector %q diverged from the nil-policy run:\nnil:  %+v\ngot:  %+v", selector, want, got)
		}
	}
}

// TestPolicyDigests checks how policies participate in the config
// content digest: the paper baseline canonicalizes away (so existing
// cached results stay valid), every other policy gets its own digest,
// and tuning a knob changes the digest again.
func TestPolicyDigests(t *testing.T) {
	base := fastConfig(PB)
	digest := func(spec *policy.Spec) string {
		cfg := base
		cfg.Policy = spec
		return cfg.Digest()
	}
	nilDigest := digest(nil)
	if d := digest(&policy.Spec{Name: "paper"}); d != nilDigest {
		t.Errorf("explicit paper spec changed the digest: %s vs %s", d, nilDigest)
	}
	seen := map[string]string{"": nilDigest}
	for _, name := range policy.Names() {
		if name == policy.Paper {
			continue
		}
		d := digest(&policy.Spec{Name: name})
		for prev, pd := range seen {
			if d == pd {
				t.Errorf("policy %q and %q share a digest", name, prev)
			}
		}
		seen[name] = d
	}
	if a, b := digest(&policy.Spec{Name: "ewma"}), digest(&policy.Spec{Name: "ewma", Alpha: 0.2}); a == b {
		t.Error("tuning ewma alpha did not change the digest")
	}
}
