// Hierarchical (multi-tier) execution: racks of E-RAPID boards under an
// inter-rack WDM fabric.
//
// The engine decomposes a two-tier system into R+1 independent SRS
// subsystems, each simulated by the existing cycle engine with all of
// its machinery (flit slab, active sets, idle fast-forward, pooled
// Reset reuse) intact:
//
//   - R tier-0 rack instances (B boards × D nodes) carry the intra-rack
//     share of the workload, fIntra = (B·D−1)/(N−1) of a uniform load;
//   - one tier-1 fabric instance — racks as "boards" (R × B·D) — carries
//     the inter-rack share under the board-aware "remote" pattern, with
//     its own lasers, DPM levels and power accounting.
//
// Each subsystem has its own RWA tables, Lock-Step controller ring,
// reconfiguration window and policy, so per-tier windows run genuinely
// independently. The subsystems exchange no packets: an inter-rack
// packet is modeled end-to-end by the tier-1 fabric (its serialization,
// reconfiguration and power), not re-injected into the destination
// rack's tier-0 SRS. That decomposition is what lets a 1k–4k-node
// system run at the flat engine's speed and allocation discipline; the
// omitted tier-0 gateway hop is documented in DESIGN.md and is the
// natural next refinement.
//
// Determinism: subsystems run sequentially with seeds derived from the
// run seed by a splitmix64 chain, and each subsystem is deterministic,
// so the whole hierarchical run is too.
package core

import (
	"context"
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TierResult is one tier's slice of a hierarchical Result: entry 0
// aggregates the R rack instances, entry 1 is the inter-rack fabric.
// Quantile fields are sample-weighted means of the per-instance
// quantiles (exact for tier 1, an aggregate for tier 0's R racks).
type TierResult struct {
	// Tier is the level index: 0 = racks, 1 = inter-rack fabric.
	Tier int
	// Systems is how many SRS instances were simulated at this level.
	Systems int
	// Boards and NodesPerBoard give the per-instance SRS shape (racks
	// count as boards at tier 1).
	Boards        int
	NodesPerBoard int
	// Window is this tier's reconfiguration period R_w; Policy its
	// non-baseline policy name ("" = paper).
	Window uint64
	Policy string `json:",omitempty"`

	// Throughput and OfferedLoad are this tier's carried share in
	// packets per global node per cycle; tier shares sum to the run's
	// totals.
	Throughput  float64
	OfferedLoad float64

	AvgLatency float64
	P95Latency float64
	Samples    int

	// Power is summed over the tier's instances; SupplyBoundMW is the
	// static every-laser-at-top ceiling the measured supply power is
	// bounded by.
	PowerDynamicMW float64
	PowerSupplyMW  float64
	SupplyBoundMW  float64
	EnergyPerBitPJ float64

	// Ctrl sums the tier's Lock-Step protocol activity; Reassignments
	// etc. count reconfigurations per tier. Wakes counts DLS wake-ups.
	Ctrl  ctrl.Counters
	Wakes uint64

	Injected          uint64
	Delivered         uint64
	DeliveredFraction float64
	Truncated         bool `json:",omitempty"`
}

// splitmix64 is the SplitMix64 output function: a bijective mixer with
// good avalanche, used to derive independent subsystem seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed maps (run seed, tier, instance) to a subsystem seed.
func deriveSeed(seed, tier, idx uint64) uint64 {
	return splitmix64(splitmix64(seed^(tier+1)*0xa3c59ac2f1234567) + idx)
}

// Hier assembles and runs a hierarchical (multi-tier) simulation. Build
// one with NewHier (or Runner.Hier for pooled slab reuse across jobs),
// optionally attach telemetry/sinks, then call Run or RunContext.
type Hier struct {
	cfg     Config
	top     *topology.Hier
	rackCfg Config // per-rack template; Seed is set per instance
	fabCfg  Config // tier-1 fabric

	rack *Runner
	fab  *Runner

	telCfg *TelemetryConfig
	sinks  []telemetry.Sink
	tels   []HierTelemetry
}

// HierTelemetry hands back one subsystem's collector after a run,
// labeled by tier and instance; its series names carry Prefix.
type HierTelemetry struct {
	Tier     int
	Instance int // rack index at tier 0; 0 at tier 1
	Prefix   string
	T        *Telemetry
}

// NewHier validates a multi-tier configuration and plans its subsystem
// runs. Flat configurations are rejected — run them through NewSystem;
// RunContext dispatches automatically.
func NewHier(cfg Config) (*Hier, error) {
	cfg = cfg.tiersApplied()
	if !cfg.MultiTier() {
		return nil, fmt.Errorf("core: NewHier needs a multi-tier config (len(Tiers) >= 2); use NewSystem for flat systems")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	top, err := cfg.hier()
	if err != nil {
		return nil, err
	}
	h := &Hier{cfg: cfg, top: top, rack: &Runner{}, fab: &Runner{}}

	rate := cfg.Rate()
	fIntra := top.IntraFraction()
	t0, t1 := cfg.Tiers[0], cfg.Tiers[1]

	// Per-rack template: the flat fields already mirror tier 0. The
	// subsystem carries the intra-rack share at an absolute rate so its
	// own Load/Capacity normalization never rescales it.
	rackCfg := cfg
	rackCfg.Tiers = nil
	rackCfg.Pattern = traffic.Uniform
	rackCfg.Load = 0
	rackCfg.InjectionRate = rate * fIntra
	if t0.Window != 0 {
		rackCfg.Window = t0.Window
	}
	if t0.Policy != nil {
		rackCfg.Policy = t0.Policy
	}
	rackCfg.PhaseProfile = false
	h.rackCfg = rackCfg

	// Tier-1 fabric: racks as boards, carrying the inter-rack share
	// under the board-aware remote pattern (never a same-rack
	// destination, so every packet crosses the fabric).
	fabCfg := cfg
	fabCfg.Tiers = nil
	fabCfg.Boards = top.Racks()
	fabCfg.NodesPerBoard = top.RackNodes()
	fabCfg.Pattern = traffic.Remote
	fabCfg.Load = 0
	fabCfg.InjectionRate = rate * (1 - fIntra)
	fabCfg.Window = cfg.Window
	if t1.Window != 0 {
		fabCfg.Window = t1.Window
	}
	if t1.Policy != nil {
		fabCfg.Policy = t1.Policy
	}
	fabCfg.Seed = deriveSeed(cfg.Seed, 1, 0)
	fabCfg.PhaseProfile = false
	h.fabCfg = fabCfg

	if err := rackCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: derived tier-0 config: %w", err)
	}
	if err := fabCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: derived tier-1 config: %w", err)
	}
	return h, nil
}

// Hier plans a hierarchical run whose subsystems reuse this Runner's
// pooled systems: consecutive hierarchical jobs on one shape reset the
// rack and fabric slabs in place instead of reconstructing them.
func (r *Runner) Hier(cfg Config) (*Hier, error) {
	h, err := NewHier(cfg)
	if err != nil {
		return nil, err
	}
	if r.rack == nil {
		r.rack = &Runner{}
		r.fab = &Runner{}
	}
	h.rack, h.fab = r.rack, r.fab
	return h, nil
}

// Topology returns the validated hierarchical topology.
func (h *Hier) Topology() *topology.Hier { return h.top }

// EnableTelemetry arranges for every subsystem run to collect metrics;
// each subsystem's series are prefixed "tier0/rack<i>/" or "tier1/".
// Call before Run; collectors are available from Telemetries after.
func (h *Hier) EnableTelemetry(tc TelemetryConfig) {
	h.telCfg = &tc
}

// AttachSink streams every subsystem's telemetry events into sink, in
// subsystem order (racks 0..R−1, then the fabric). Call before Run.
func (h *Hier) AttachSink(sink telemetry.Sink) {
	h.sinks = append(h.sinks, sink)
}

// Telemetries returns the per-subsystem collectors of the last run
// (nil until EnableTelemetry and a run).
func (h *Hier) Telemetries() []HierTelemetry { return h.tels }

// Run executes the hierarchical simulation; see RunContext.
func (h *Hier) Run() (*Result, error) {
	return h.RunContext(context.Background())
}

// subRun captures one subsystem's Result plus the fabric-level values
// (supply ceiling, integrated energy) that only exist pre-teardown.
type subRun struct {
	res         *Result
	supplyBound float64
	dynamicNJ   float64
	nodes       int
}

// RunContext runs the R rack subsystems and the tier-1 fabric
// sequentially, aggregating their metrics into one Result with a
// per-tier breakdown. Cancellation is checked inside every subsystem
// run at window boundaries; a cancelled run returns the aggregate of
// the completed portion alongside the *CancelledError.
func (h *Hier) RunContext(ctx context.Context) (*Result, error) {
	h.tels = nil
	racks := h.top.Racks()
	runOne := func(runner *Runner, cfg Config, tier, inst int) (subRun, error) {
		sys, err := runner.System(cfg)
		if err != nil {
			return subRun{}, err
		}
		if h.telCfg != nil {
			tc := *h.telCfg
			if tc.Window == 0 {
				tc.Window = cfg.Window
			}
			prefix := fmt.Sprintf("tier%d/", tier)
			if tier == 0 {
				prefix = fmt.Sprintf("tier%d/rack%d/", tier, inst)
			}
			tc.Prefix = prefix
			h.tels = append(h.tels, HierTelemetry{Tier: tier, Instance: inst, Prefix: prefix, T: sys.EnableTelemetry(tc)})
		}
		for _, sink := range h.sinks {
			sys.AttachSink(sink)
		}
		res, runErr := sys.RunContext(ctx)
		sr := subRun{res: res, nodes: cfg.Boards * cfg.NodesPerBoard}
		if res != nil {
			sr.supplyBound = sys.Fabric().SupplyBoundMW()
			sr.dynamicNJ = sys.Fabric().Meter().DynamicEnergyNJ()
		}
		return sr, runErr
	}

	rackRuns := make([]subRun, 0, racks)
	var cancelled *CancelledError
	for i := 0; i < racks; i++ {
		cfg := h.rackCfg
		cfg.Seed = deriveSeed(h.cfg.Seed, 0, uint64(i))
		sr, err := runOne(h.rack, cfg, 0, i)
		if err != nil {
			var ce *CancelledError
			if asCancelled(err, &ce) && sr.res != nil {
				rackRuns = append(rackRuns, sr)
				cancelled = ce
				break
			}
			return nil, fmt.Errorf("core: tier-0 rack %d: %w", i, err)
		}
		rackRuns = append(rackRuns, sr)
	}
	var fabRun *subRun
	if cancelled == nil {
		sr, err := runOne(h.fab, h.fabCfg, 1, 0)
		if err != nil {
			var ce *CancelledError
			if asCancelled(err, &ce) && sr.res != nil {
				cancelled = ce
			} else {
				return nil, fmt.Errorf("core: tier-1 fabric: %w", err)
			}
		}
		if sr.res != nil {
			fabRun = &sr
		}
	}
	res := h.merge(rackRuns, fabRun)
	if cancelled != nil {
		return res, cancelled
	}
	return res, nil
}

// asCancelled reports whether err is a *CancelledError, unwrapping it.
func asCancelled(err error, out **CancelledError) bool {
	ce, ok := err.(*CancelledError)
	if ok {
		*out = ce
	}
	return ok
}

// merge folds the subsystem results into one Result plus the per-tier
// breakdown. Additive quantities (power, counters, packet counts) sum;
// per-node rates are carried shares that sum across tiers; latency
// statistics are sample-weighted.
func (h *Hier) merge(rackRuns []subRun, fabRun *subRun) *Result {
	cfg := h.cfg
	n := float64(h.top.TotalNodes())

	t0 := h.tierResult(0, rackRuns)
	tiers := []TierResult{t0}
	if fabRun != nil {
		tiers = append(tiers, h.tierResult(1, []subRun{*fabRun}))
	}

	r := &Result{
		Mode:     cfg.Mode,
		Pattern:  cfg.Pattern,
		Policy:   cfg.PolicyName(),
		Load:     cfg.Load,
		Rate:     cfg.Rate(),
		Capacity: cfg.Capacity(),
		Tiers:    tiers,
	}
	var latW, latSum, netSum, p50, p95, p99 float64
	var bits, energyNJ float64
	var labInj, labDel float64
	var fairW, fairSum float64
	all := make([]subRun, 0, len(rackRuns)+1)
	all = append(all, rackRuns...)
	if fabRun != nil {
		all = append(all, *fabRun)
	}
	for _, sr := range all {
		sub := sr.res
		nodes := float64(sr.nodes)
		// Per-node rates scale by the subsystem's share of the N global
		// nodes; every global node appears once per tier, so tier shares
		// add up to the run totals.
		r.Throughput += sub.Throughput * nodes / n
		r.OfferedLoad += sub.OfferedLoad * nodes / n

		w := float64(sub.Samples)
		latW += w
		latSum += sub.AvgLatency * w
		netSum += sub.AvgNetLatency * w
		p50 += sub.P50Latency * w
		p95 += sub.P95Latency * w
		p99 += sub.P99Latency * w
		if sub.MaxLatency > r.MaxLatency {
			r.MaxLatency = sub.MaxLatency
		}
		r.Samples += sub.Samples

		r.PowerDynamicMW += sub.PowerDynamicMW
		r.PowerSupplyMW += sub.PowerSupplyMW
		energyNJ += sr.dynamicNJ
		if sub.EnergyPerBitPJ > 0 {
			bits += sr.dynamicNJ * 1e3 / sub.EnergyPerBitPJ
		}

		r.Ctrl = r.Ctrl.Add(sub.Ctrl)
		r.Wakes += sub.Wakes
		if sub.Cycles > r.Cycles {
			r.Cycles = sub.Cycles
		}
		r.Truncated = r.Truncated || sub.Truncated
		r.Injected += sub.Injected
		r.Delivered += sub.Delivered
		if sub.MaxSourceQueue > r.MaxSourceQueue {
			r.MaxSourceQueue = sub.MaxSourceQueue
		}
		fairW += float64(sub.Delivered)
		fairSum += sub.Fairness * float64(sub.Delivered)

		if sub.DeliveredFraction > 0 {
			li := float64(sub.Samples) / sub.DeliveredFraction
			labInj += li
			labDel += float64(sub.Samples)
		}
	}
	if latW > 0 {
		r.AvgLatency = latSum / latW
		r.AvgNetLatency = netSum / latW
		r.P50Latency = p50 / latW
		r.P95Latency = p95 / latW
		r.P99Latency = p99 / latW
	}
	if bits > 0 {
		r.EnergyPerBitPJ = energyNJ * 1e3 / bits
	}
	r.DeliveredFraction = 1
	if labInj > 0 {
		r.DeliveredFraction = labDel / labInj
	}
	if fairW > 0 {
		r.Fairness = fairSum / fairW
	}
	return r
}

// tierResult aggregates the instances of one tier.
func (h *Hier) tierResult(tier int, runs []subRun) TierResult {
	n := float64(h.top.TotalNodes())
	level := h.top.Level(tier)
	cfg := h.rackCfg
	if tier == 1 {
		cfg = h.fabCfg
	}
	t := TierResult{
		Tier:          tier,
		Systems:       len(runs),
		Boards:        level.Boards(),
		NodesPerBoard: level.NodesPerBoard(),
		Window:        cfg.Window,
		Policy:        cfg.PolicyName(),
	}
	var latW, latSum, p95 float64
	var bits, energyNJ float64
	var labInj, labDel float64
	for _, sr := range runs {
		sub := sr.res
		nodes := float64(sr.nodes)
		t.Throughput += sub.Throughput * nodes / n
		t.OfferedLoad += sub.OfferedLoad * nodes / n
		w := float64(sub.Samples)
		latW += w
		latSum += sub.AvgLatency * w
		p95 += sub.P95Latency * w
		t.Samples += sub.Samples
		t.PowerDynamicMW += sub.PowerDynamicMW
		t.PowerSupplyMW += sub.PowerSupplyMW
		t.SupplyBoundMW += sr.supplyBound
		energyNJ += sr.dynamicNJ
		if sub.EnergyPerBitPJ > 0 {
			bits += sr.dynamicNJ * 1e3 / sub.EnergyPerBitPJ
		}
		t.Ctrl = t.Ctrl.Add(sub.Ctrl)
		t.Wakes += sub.Wakes
		t.Injected += sub.Injected
		t.Delivered += sub.Delivered
		t.Truncated = t.Truncated || sub.Truncated
		if sub.DeliveredFraction > 0 {
			labInj += float64(sub.Samples) / sub.DeliveredFraction
			labDel += float64(sub.Samples)
		}
	}
	if latW > 0 {
		t.AvgLatency = latSum / latW
		t.P95Latency = p95 / latW
	}
	if bits > 0 {
		t.EnergyPerBitPJ = energyNJ * 1e3 / bits
	}
	t.DeliveredFraction = 1
	if labInj > 0 {
		t.DeliveredFraction = labDel / labInj
	}
	return t
}
