package erapid

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Sec. 4). Each figure bench simulates the paper's 64-node
// system for the four network modes at representative loads and reports
// the headline comparison as benchmark metrics; the full 9-point load
// sweeps (the complete figures) are regenerated by cmd/erapid-sweep and
// recorded in EXPERIMENTS.md.
//
// The benches use a shortened measurement schedule so the whole suite
// finishes in minutes; shapes (who wins, by what factor) are unaffected.

import (
	"context"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/service"
)

// benchConfig is the 64-node paper system with a shortened schedule.
func benchConfig(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.WarmupCycles = 12000
	cfg.MeasureCycles = 6000
	cfg.DrainLimitCycles = 60000
	return cfg
}

func runPoint(b *testing.B, mode Mode, pattern string, load float64) *Result {
	b.Helper()
	cfg := benchConfig(mode)
	cfg.Pattern = pattern
	cfg.Load = load
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// figureBench runs NP-NB, P-NB, NP-B and P-B at a mid and a high load for
// one traffic pattern and reports throughput gain and power ratios of the
// reconfigured modes against the static baseline.
func figureBench(b *testing.B, pattern string) {
	for i := 0; i < b.N; i++ {
		base := runPoint(b, NPNB, pattern, 0.9)
		pnb := runPoint(b, PNB, pattern, 0.9)
		npb := runPoint(b, NPB, pattern, 0.9)
		pb := runPoint(b, PB, pattern, 0.9)

		if i == b.N-1 { // report once, from the final iteration
			b.ReportMetric(npb.Throughput/base.Throughput, "thr-gain:NP-B")
			b.ReportMetric(pb.Throughput/base.Throughput, "thr-gain:P-B")
			b.ReportMetric(npb.PowerDynamicMW/base.PowerDynamicMW, "pwr-ratio:NP-B")
			b.ReportMetric(pb.PowerDynamicMW/base.PowerDynamicMW, "pwr-ratio:P-B")
			b.ReportMetric(pnb.PowerDynamicMW/base.PowerDynamicMW, "pwr-ratio:P-NB")
			b.ReportMetric(base.Throughput, "thr:NP-NB")
		}
	}
}

// BenchmarkFigure5Uniform regenerates the uniform-traffic panel of
// Fig. 5: NP-NB ≈ NP-B; P-NB/P-B trade a few percent of throughput for
// 16-50% power.
func BenchmarkFigure5Uniform(b *testing.B) { figureBench(b, Uniform) }

// BenchmarkFigure5Complement regenerates the complement-traffic panel of
// Fig. 5: the static network saturates at very low load; NP-B/P-B gain
// ~4x throughput at ~4x/3x dynamic power.
func BenchmarkFigure5Complement(b *testing.B) { figureBench(b, Complement) }

// BenchmarkFigure6Butterfly regenerates the butterfly panel of Fig. 6.
func BenchmarkFigure6Butterfly(b *testing.B) { figureBench(b, Butterfly) }

// BenchmarkFigure6Shuffle regenerates the perfect-shuffle panel of
// Fig. 6.
func BenchmarkFigure6Shuffle(b *testing.B) { figureBench(b, Shuffle) }

// BenchmarkTable1LinkPower regenerates Table 1's per-level link power
// from the analytic component model and reports the published totals.
func BenchmarkTable1LinkPower(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, l := range []power.Level{power.Low, power.Mid, power.High} {
			sink += power.ScaledMW(power.Table1[l])
		}
	}
	_ = sink
	b.ReportMetric(power.LinkMW(power.Low), "mW:2.5G")
	b.ReportMetric(power.LinkMW(power.Mid), "mW:3.3G")
	b.ReportMetric(power.LinkMW(power.High), "mW:5G")
}

// BenchmarkFigure3DesignSpace reproduces the design-space behaviour of
// Fig. 3 as measurable quantities: with a phased low→high→low load, the
// P-B network's supply power tracks utilization while NP-NB's stays
// flat.
func BenchmarkFigure3DesignSpace(b *testing.B) {
	run := func(mode Mode) (minP, maxP float64) {
		cfg := DefaultConfig(mode)
		cfg.Boards, cfg.NodesPerBoard = 4, 4
		cfg.Window = 1000
		cfg.InjectionRate = 0.002 // phase 1: light
		cfg.Load = 0
		s, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Controllers().Start()
		fab := s.Fabric()
		fab.EnableMetering(true)
		minP, maxP = 1e18, 0
		sample := func(cycles int) {
			fab.Meter().Reset()
			for i := 0; i < cycles; i++ {
				s.Step()
			}
			p := fab.Meter().AvgSupplyMW()
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
		}
		sample(8000) // settle + light phase
		sample(4000)
		return minP, maxP
	}
	for i := 0; i < b.N; i++ {
		minStatic, maxStatic := run(NPNB)
		minPB, maxPB := run(PB)
		if i == b.N-1 {
			b.ReportMetric(maxStatic-minStatic, "mW-span:NP-NB")
			b.ReportMetric(maxPB, "mW-max:P-B")
			b.ReportMetric(minPB, "mW-min:P-B")
		}
	}
}

// BenchmarkAblationMaxHold sweeps the DBR re-allocation cap: the
// complement-traffic gain grows with the number of channels a hot flow
// may hold (the paper's plateau corresponds to 4).
func BenchmarkAblationMaxHold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runPoint(b, NPNB, Complement, 0.9)
		for _, hold := range []int{1, 2, 4, 7} {
			cfg := benchConfig(NPB)
			cfg.Pattern = Complement
			cfg.Load = 0.9
			cfg.MaxHold = hold
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Throughput/base.Throughput, "thr-gain:hold"+itoa(hold))
			}
		}
	}
}

// BenchmarkAblationWindow sweeps the reconfiguration window R_w around
// the paper's 2000-cycle choice.
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, window := range []uint64{500, 2000, 8000} {
			cfg := benchConfig(PB)
			cfg.Pattern = Complement
			cfg.Load = 0.7
			cfg.Window = window
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Throughput, "thr:Rw"+utoa(window))
			}
		}
	}
}

// benchSimSpeed measures raw simulator performance for one full 64-node
// configuration: each op is one system cycle, so it reports simulated
// cycles/second directly alongside the usual ns/op and allocs/op.
func benchSimSpeed(b *testing.B, mode Mode, pattern string, load float64) {
	cfg := DefaultConfig(mode)
	cfg.Pattern = pattern
	cfg.Load = load
	if load == 0 {
		// Idle floor: a negligible explicit rate keeps the config valid
		// while injecting (essentially) nothing.
		cfg.InjectionRate = 1e-12
	}
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Controllers().Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "cycles/s")
	}
}

// BenchmarkSimSpeed is the simulator's hot-path speedometer: the
// 64-node paper system under uniform load 0.5 in each of the four
// network modes. The P-B case is the headline number tracked in
// README.md and scripts/bench.sh; the other modes guard against a mode
// regressing independently (they exercise different mixes of DPM and
// DBR control work).
func BenchmarkSimSpeed(b *testing.B) {
	b.Run("P-B", func(b *testing.B) { benchSimSpeed(b, PB, Uniform, 0.5) })
	b.Run("NP-NB", func(b *testing.B) { benchSimSpeed(b, NPNB, Uniform, 0.5) })
	b.Run("P-NB", func(b *testing.B) { benchSimSpeed(b, PNB, Uniform, 0.5) })
	b.Run("NP-B", func(b *testing.B) { benchSimSpeed(b, NPB, Uniform, 0.5) })
}

// benchSimSpeedLarge measures a large configuration (beyond the paper's
// 64 nodes).
func benchSimSpeedLarge(b *testing.B, boards, nodes int) {
	cfg := DefaultConfig(PB)
	cfg.Boards = boards
	cfg.NodesPerBoard = nodes
	cfg.Pattern = Uniform
	cfg.Load = 0.5
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Controllers().Start()
	// Warm the engine to steady state before measuring: the first windows
	// grow the queue backing arrays and the delivery heap, and that
	// one-time ramp would otherwise dominate the per-cycle allocation
	// figures at moderate b.N.
	s.StepN(2 * cfg.Window)
	b.ReportAllocs()
	b.ResetTimer()
	// Step in window-sized batches, the way Run drives the engine. One op
	// is still one cycle, so ns/op and allocs/op stay per-cycle figures.
	for done := uint64(0); done < uint64(b.N); {
		n := cfg.Window
		if rem := uint64(b.N) - done; rem < n {
			n = rem
		}
		s.StepN(n)
		done += n
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "cycles/s")
	}
}

// BenchmarkSimSpeedLarge measures two large configurations: 32 boards
// × 16 nodes = 512 nodes, and 64 boards × 8 nodes = 512 nodes with 8×
// the optical ports. The "-w1" suffix keeps the row names of the
// checked-in baselines, which scripts/bench.sh gates against.
func BenchmarkSimSpeedLarge(b *testing.B) {
	for _, sh := range []struct{ boards, nodes int }{{32, 16}, {64, 8}} {
		sh := sh
		b.Run(fmt.Sprintf("%dx%d-w1", sh.boards, sh.nodes), func(b *testing.B) {
			benchSimSpeedLarge(b, sh.boards, sh.nodes)
		})
	}
}

// BenchmarkSimSpeedHier measures the hierarchical engine at the
// issue's 1k-node shape: 16 racks of 8 boards × 8 nodes under one
// inter-rack fabric. One op is one complete run (16 rack subsystems
// plus the fabric, warm-up through drain) on a shortened schedule,
// through a pooled Runner the way the sweep and service fleets drive
// it; jobs/s is complete 1k-node runs per second. peakRSS-MB records
// the process high-water mark (getrusage ru_maxrss) after the run —
// the memory-footprint line for the 1k-node row in bench.sh's JSON,
// which runs this benchmark in its own process so the mark is not
// inherited from whatever larger config ran earlier in the binary.
func BenchmarkSimSpeedHier(b *testing.B) {
	b.Run("16x8x8", func(b *testing.B) {
		cfg := DefaultConfig(PB)
		cfg.Tiers = []TierSpec{{Boards: 8, NodesPerBoard: 8}, {Boards: 16}}
		cfg.Load = 0.5
		cfg.Window = 1000
		cfg.WarmupCycles = 2000
		cfg.MeasureCycles = 2000
		var r Runner
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "jobs/s")
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			// Linux reports ru_maxrss in KiB.
			b.ReportMetric(float64(ru.Maxrss)/1024, "peakRSS-MB")
		}
	})
}

// BenchmarkSimSpeedHighLoad stresses the flit path near saturation,
// where buffer occupancy (and hence per-cycle router work) peaks.
//
// Load 0.9 exceeds the P-B fabric's saturation throughput, so the
// open-loop source queues grow every cycle (~0.3 packets/cycle): the
// residual B/op here is that live in-flight growth — fresh packets the
// recycling pool can never be warm enough to supply — not steady-state
// churn. Profiling confirms >85% of allocated bytes come from the
// chunked packet allocator (flit.Block) and the rest from queue backing
// arrays and measurement samples, all live data. The sub-saturation
// benchmarks above are the churn gauge; they sit at single-digit B/op.
func BenchmarkSimSpeedHighLoad(b *testing.B) {
	benchSimSpeed(b, PB, Uniform, 0.9)
}

// BenchmarkSimSpeedComplement exercises the DBR-heavy complement
// pattern, where channel reassignment and multi-hop holder chains
// dominate.
func BenchmarkSimSpeedComplement(b *testing.B) {
	benchSimSpeed(b, PB, Complement, 0.5)
}

// BenchmarkSimSpeedIdle measures the idle floor: a powered system with
// no offered traffic, driven in window-sized StepN batches the way Run
// drives the engine. Idle fast-forward should advance each quiet
// stretch analytically — per idle cycle only the injector draws and the
// idle-power sample remain — so this sits far below even the active-set
// scheduler's skip-everything cost, let alone a loaded cycle.
func BenchmarkSimSpeedIdle(b *testing.B) {
	cfg := DefaultConfig(PB)
	cfg.Pattern = Uniform
	// A negligible explicit rate keeps the config valid while injecting
	// (essentially) nothing — and keeps the idle path honest: every node
	// still consumes one RNG draw per cycle.
	cfg.InjectionRate = 1e-12
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Controllers().Start()
	b.ReportAllocs()
	b.ResetTimer()
	for done := uint64(0); done < uint64(b.N); {
		n := cfg.Window
		if rem := uint64(b.N) - done; rem < n {
			n = rem
		}
		s.StepN(n)
		done += n
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "cycles/s")
	}
}

// BenchmarkTelemetryOverhead measures the cost of the telemetry layer on
// the hot path. "off" is the baseline (no sink attached — must match
// BenchmarkSimSpeed/P-B and stay at 0 allocs/op); "on" runs the full
// per-window collector plus the in-memory event recorder, the worst-case
// always-on configuration. The gap between the two is the observability
// tax reported in README.md.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, enable bool) {
		cfg := DefaultConfig(PB)
		cfg.Pattern = Uniform
		cfg.Load = 0.5
		s, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if enable {
			s.EnableTelemetry(TelemetryConfig{})
		}
		s.Controllers().Start()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "cycles/s")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkPhaseProfileOverhead measures the phase profiler's cost on
// the hot path, mirroring BenchmarkTelemetryOverhead: "off" must match
// the plain engine (the nil-check discipline) and stay at 0 allocs/op;
// "on" pays the per-phase clock reads and is the price of a per-phase
// time breakdown.
func BenchmarkPhaseProfileOverhead(b *testing.B) {
	run := func(b *testing.B, enable bool) {
		cfg := DefaultConfig(PB)
		cfg.Pattern = Uniform
		cfg.Load = 0.5
		cfg.PhaseProfile = enable
		s, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Controllers().Start()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "cycles/s")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkSystemReset compares fresh construction against Reset-in-place
// reuse, for the paper system and a large configuration whose laser
// slabs dominate construction (O(B³) lasers). Reset keeps the engine,
// fabric slabs, routers, NICs and packet pool and rebuilds only the
// per-run state (controllers, injectors, measurement), so the reset/new
// ratio is the per-job tax the pooled Runner removes from sweep and
// service fleets.
func BenchmarkSystemReset(b *testing.B) {
	for _, sh := range []struct{ boards, nodes int }{{8, 8}, {32, 16}} {
		cfg := DefaultConfig(PB)
		cfg.Boards, cfg.NodesPerBoard = sh.boards, sh.nodes
		name := fmt.Sprintf("%dx%d", sh.boards, sh.nodes)
		b.Run("new/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSystem(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("reset/"+name, func(b *testing.B) {
			s, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Reset(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// reuseJobConfig is the construction-bound job profile of the reuse
// benchmarks: a board-heavy topology (64×8, the SimSpeedLarge shape
// whose O(B³) laser slabs dominate construction) on a short, light
// schedule — the shape of a quick exploratory scan or CI smoke over
// many seeds. Idle fast-forward collapses the run to its floor (one
// injector draw per node per cycle plus the idle-power sample), so
// per-job system construction is the dominant cost such a fleet pays —
// the tax Reset-based reuse removes.
func reuseJobConfig() Config {
	cfg := DefaultConfig(PB)
	cfg.Boards, cfg.NodesPerBoard = 64, 8
	cfg.Pattern = Uniform
	cfg.InjectionRate = 1e-12
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 500
	cfg.DrainLimitCycles = 5000
	return cfg
}

// BenchmarkSweepJobs measures fleet job throughput on repeated
// same-topology jobs (stepped seeds, the replication workload): "fresh"
// constructs a new system per job the way the fleet worked before
// pooled reuse; "reuse" drives one Runner the way sweep.Replicate,
// sweep.Compare and the service worker pool now do, resetting the
// pooled system per job. The reuse/fresh jobs/s ratio is the headline
// reuse speedup (acceptance: ≥ 1.5x).
func BenchmarkSweepJobs(b *testing.B) {
	job := func(b *testing.B, run func(Config) (*Result, error)) {
		b.Helper()
		cfg := reuseJobConfig()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i + 1)
			if _, err := run(cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "jobs/s")
		}
	}
	b.Run("fresh", func(b *testing.B) { job(b, Run) })
	b.Run("reuse", func(b *testing.B) {
		var runner Runner
		job(b, runner.Run)
	})
}

// BenchmarkServiceThroughput measures end-to-end job throughput through
// the service worker pool: each op submits one run job (stepped seeds,
// so the content-addressed cache never answers) and waits for its
// completion. The single worker's pooled Runner resets one system
// across the whole job stream, so per-job system construction is off
// the measured path; what remains is the job pipeline itself (queue,
// telemetry event log, result capture) plus the run.
func BenchmarkServiceThroughput(b *testing.B) {
	srv := service.New(service.Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	cfg := reuseJobConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		jv, err := srv.SubmitRun(cfg)
		if err != nil {
			b.Fatal(err)
		}
		done, ok := srv.Done(jv.ID)
		if !ok {
			b.Fatalf("job %s vanished", jv.ID)
		}
		<-done
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "jobs/s")
	}
}

func itoa(n int) string { return utoa(uint64(n)) }

func utoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationPowerLevels tests the paper's future-work hypothesis
// ("more power levels and corresponding bit rates can further improve
// the performance as power scaling can follow the traffic pattern more
// accurately"): the P-B network with 2, 3, 5 and 7 operating points at
// a mid load where DPM is active.
func BenchmarkAblationPowerLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, levels := range []int{2, 3, 5, 7} {
			cfg := benchConfig(PB)
			cfg.Pattern = Uniform
			cfg.Load = 0.4
			cfg.PowerLevels = levels
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.PowerDynamicMW, "mW:levels"+itoa(levels))
				b.ReportMetric(res.Throughput*1000, "kthr:levels"+itoa(levels))
			}
		}
	}
}

// BenchmarkAblationPortRadius tests the paper's cost-reduction future
// work ("cost-effective design alternatives that provide limited
// flexibility for reconfigurability may reduce performance, but lower
// the cost"): complement-traffic gain versus the laser-array port
// radius (0 = full array).
func BenchmarkAblationPortRadius(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runPoint(b, NPNB, Complement, 0.9)
		for _, radius := range []int{0, 1, 2, 3} {
			cfg := benchConfig(NPB)
			cfg.Pattern = Complement
			cfg.Load = 0.9
			cfg.PortRadius = radius
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Throughput/base.Throughput, "thr-gain:radius"+itoa(radius))
			}
		}
	}
}

// BenchmarkAblationBurstiness measures how burstiness interacts with the
// window-based reconfiguration: the same mean load injected smoothly
// (Bernoulli) versus in bursts shorter and longer than R_w.
func BenchmarkAblationBurstiness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, burst := range []float64{0, 500, 4000} {
			cfg := benchConfig(PB)
			cfg.Pattern = Uniform
			cfg.Load = 0.5
			cfg.BurstLength = burst
			cfg.BurstDuty = 0.25
			if burst == 0 {
				cfg.BurstDuty = 0
			}
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				name := "bernoulli"
				if burst > 0 {
					name = "burst" + itoa(int(burst))
				}
				b.ReportMetric(res.P99Latency, "p99:"+name)
				b.ReportMetric(res.PowerDynamicMW, "mW:"+name)
			}
		}
	}
}

// BenchmarkAblationPacketSize sweeps the packet size (the paper fixes
// 64 B "for most of the runs"): larger packets amortize per-packet
// pipeline costs but hold optical channels longer.
func BenchmarkAblationPacketSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bytes := range []int{32, 64, 128, 256} {
			cfg := benchConfig(PB)
			cfg.Pattern = Uniform
			cfg.Load = 0.5
			cfg.PacketBytes = bytes
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.AvgLatency, "lat:"+itoa(bytes)+"B")
				b.ReportMetric(res.Throughput*float64(bytes)*8/2.5*1000, "Mbps-node:"+itoa(bytes)+"B")
			}
		}
	}
}
