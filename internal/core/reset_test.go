package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// runReset resets s to cfg, runs it, and returns the Result plus the
// telemetry stream (the same capture runCapture does on a fresh
// system).
func runReset(t *testing.T, s *System, cfg Config) (*Result, []telemetry.Event) {
	t.Helper()
	if err := s.Reset(cfg); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	sink := &captureSink{}
	s.AttachSink(sink)
	res := s.Run()
	return res, sink.evs
}

// TestResetMatchesNewSystem is the pooled-reuse contract: a system
// Reset after a completed run produces a bit-identical Result and
// telemetry stream to a freshly constructed system, for every mode.
func TestResetMatchesNewSystem(t *testing.T) {
	for _, mode := range Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			cfg := fastConfig(mode)
			refRes, refEvs := runCapture(t, cfg)
			// Dirty the pooled system with a different seed first so the
			// reset has real state to rewind.
			dirty := cfg
			dirty.Seed = cfg.Seed + 17
			s, err := NewSystem(dirty)
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			res, evs := runReset(t, s, cfg)
			assertIdentical(t, "reset "+mode.String(), refRes, refEvs, res, evs)
		})
	}
}

// TestResetReusedAcrossRuns replays one system through a mode change, a
// policy change, a faulted run and a seed change — the exact reuse
// pattern of the sweep and compare fleets — checking each run against a
// fresh system.
func TestResetReusedAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("several full runs")
	}
	base := fastConfig(PB)
	s, err := NewSystem(base)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	cfgs := []struct {
		label string
		cfg   Config
	}{
		{"mode", fastConfig(NPNB)},
		{"policy", func() Config {
			c := fastConfig(PB)
			c.Policy = &policy.Spec{Name: "greedy-off"}
			return c
		}()},
		{"faulted", func() Config {
			c := fastConfig(PB)
			c.Faults = faultSpec()
			return c
		}()},
		{"seed", func() Config {
			c := fastConfig(PNB)
			c.Seed = 99
			return c
		}()},
	}
	for _, tc := range cfgs {
		refRes, refEvs := runCapture(t, tc.cfg)
		res, evs := runReset(t, s, tc.cfg)
		assertIdentical(t, "reuse "+tc.label, refRes, refEvs, res, evs)
	}
}

// TestResetSeed pins the replication fast path.
func TestResetSeed(t *testing.T) {
	cfg := fastConfig(PB)
	cfg.Seed = 7
	refRes, refEvs := runCapture(t, cfg)
	s, err := NewSystem(fastConfig(PB))
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.ResetSeed(7); err != nil {
		t.Fatalf("ResetSeed: %v", err)
	}
	sink := &captureSink{}
	s.AttachSink(sink)
	res := s.Run()
	assertIdentical(t, "reset seed", refRes, refEvs, res, sink.evs)
}

// TestResetIncompatible pins the structural-compatibility boundary:
// slab-shaping fields reject, per-run fields accept.
func TestResetIncompatible(t *testing.T) {
	cfg := fastConfig(PB)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reject := []struct {
		label  string
		mutate func(*Config)
	}{
		{"Boards", func(c *Config) { c.Boards = 8; c.NodesPerBoard = 2 }},
		{"NodesPerBoard", func(c *Config) { c.NodesPerBoard++ }},
		{"VCs", func(c *Config) { c.VCs++ }},
		{"PacketBytes", func(c *Config) { c.PacketBytes *= 2 }},
		{"LaserQueueCap", func(c *Config) { c.LaserQueueCap++ }},
		{"RelockCycles", func(c *Config) { c.RelockCycles++ }},
	}
	for _, tc := range reject {
		c := cfg
		tc.mutate(&c)
		if s.ResetCompatible(c) {
			t.Errorf("%s change reported compatible", tc.label)
		}
		if err := s.Reset(c); err == nil {
			t.Errorf("%s change accepted by Reset", tc.label)
		}
	}
	accept := cfg
	accept.Mode = NPNB
	accept.Window = cfg.Window * 2
	accept.Seed = 42
	if !s.ResetCompatible(accept) {
		t.Error("per-run field changes reported incompatible")
	}
	if err := s.Reset(accept); err != nil {
		t.Errorf("per-run field changes rejected: %v", err)
	}
}
