// Command erapid runs a single E-RAPID simulation and prints its
// metrics.
//
// Examples:
//
//	erapid -mode P-B -pattern complement -load 0.7
//	erapid -mode NP-NB -pattern uniform -load 0.5 -boards 4 -nodes 4
//	erapid -mode P-B -pattern complement -load 0.7 -trace | head -40
//	erapid -mode P-B -pattern complement -load 0.7 \
//	    -metrics-out run.metrics.jsonl -events-out run.events.jsonl \
//	    -perfetto run.trace.json -dashboard run.html
//	erapid -mode P-B -load 0.5 -tiers rack=8x8,count=16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	erapid "repro"
	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/policy"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		mode    = flag.String("mode", "P-B", "network mode: NP-NB, P-NB, NP-B or P-B")
		pattern = flag.String("pattern", erapid.Uniform, "traffic pattern (uniform, complement, butterfly, shuffle, transpose, bitreverse, tornado, neighbor, hotspot)")
		load    = flag.Float64("load", 0.5, "offered load as a fraction of uniform network capacity")
		rate    = flag.Float64("rate", 0, "absolute injection rate in packets/node/cycle (overrides -load)")
		boards  = flag.Int("boards", 8, "boards B")
		nodes   = flag.Int("nodes", 8, "nodes per board D")
		tiers   = flag.String("tiers", "", "hierarchical topology as rack=BxD,count=R (e.g. rack=8x8,count=16): R racks of BxD plus the inter-rack fabric; overrides -boards/-nodes")
		seed    = flag.Uint64("seed", 1, "random seed")
		window  = flag.Uint64("window", 2000, "reconfiguration window R_w in cycles")
		maxHold = flag.Int("maxhold", 4, "max channels one flow may hold (0 = unlimited)")
		warmup  = flag.Uint64("warmup", 20000, "warm-up cycles")
		measure = flag.Uint64("measure", 10000, "measurement cycles")
		drain   = flag.Uint64("drain", 300000, "drain limit cycles")
		lsTrace = flag.Bool("trace", false, "print the Lock-Step protocol stage trace (Fig. 4)")
		polFlag = flag.String("policy", "", "reconfiguration policy: a name (paper, greedy-off, ewma, oracle-static) or a JSON spec like {\"name\":\"ewma\",\"alpha\":0.2}")
		faults  = flag.String("faults", "", "load a JSON fault-injection spec (see internal/fault)")
		cfgPath = flag.String("config", "", "load a JSON config file (flags override it)")
		dump    = flag.String("dump-config", "", "write the effective config as JSON and exit")
		journey = flag.Int("journey", 0, "after the run, print the traced journeys of N delivered packets")

		metricsOut = flag.String("metrics-out", "", "write per-window metrics as JSON Lines to this file")
		eventsOut  = flag.String("events-out", "", "stream telemetry events as JSON Lines to this file")
		perfetto   = flag.String("perfetto", "", "write a Chrome trace_event JSON (Perfetto-loadable) to this file")
		dashboard  = flag.String("dashboard", "", "write a per-window HTML dashboard to this file")

		phaseProf    = flag.Bool("phase-profile", false, "record per-phase wall time (draw, tick, serial) and print a summary (bit-identical results)")
		phaseProfOut = flag.String("phase-profile-out", "", "write the phase profiler's per-window series as JSON Lines (implies -phase-profile)")
	)
	profFlags := prof.AddFlags()
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	m, err := erapid.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := erapid.DefaultConfig(m)
	if *cfgPath != "" {
		var err error
		cfg, err = core.LoadConfig(*cfgPath, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	cfg.Pattern = *pattern
	cfg.Load = *load
	cfg.InjectionRate = *rate
	cfg.Boards = *boards
	cfg.NodesPerBoard = *nodes
	cfg.Seed = *seed
	cfg.Window = *window
	cfg.MaxHold = *maxHold
	cfg.WarmupCycles = *warmup
	cfg.MeasureCycles = *measure
	cfg.DrainLimitCycles = *drain
	cfg.PhaseProfile = *phaseProf || *phaseProfOut != ""
	if *polFlag != "" {
		spec, err := policy.ParseSpec(*polFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Policy = spec
	}
	if *faults != "" {
		spec, err := erapid.LoadFaultSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Faults = spec
	}
	if *tiers != "" {
		specs, err := parseTiers(*tiers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Tiers = specs
	}

	if *dump != "" {
		if err := core.SaveConfig(*dump, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("wrote", *dump)
		return
	}

	if cfg.MultiTier() {
		// The flat-engine introspection knobs have no hierarchical
		// equivalent yet; fail fast instead of silently ignoring them.
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{*lsTrace, "-trace"},
			{*journey > 0, "-journey"},
			{*perfetto != "", "-perfetto"},
			{*dashboard != "", "-dashboard"},
			{cfg.PhaseProfile, "-phase-profile"},
		} {
			if bad.set {
				fmt.Fprintf(os.Stderr, "%s is not supported with -tiers (flat runs only)\n", bad.name)
				os.Exit(2)
			}
		}
		runHier(cfg, *metricsOut, *eventsOut)
		return
	}

	sys, err := erapid.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// -trace rides the unified telemetry pipeline: a recorder filtered to
	// LS stage entries replaces the old ctrl.System.Trace() consumer (the
	// printed format is unchanged).
	var stageRec *telemetry.Recorder
	if *lsTrace {
		stageRec = telemetry.NewRecorder(1 << 20)
		stageRec.Filter = func(ev telemetry.Event) bool { return ev.Kind == telemetry.StageEnter }
		sys.AttachSink(stageRec)
	}
	var tracer *trace.Tracer
	if *journey > 0 {
		tracer = trace.New(1 << 20)
		sys.AttachTracer(tracer)
	}

	// Telemetry exports: a streaming JSONL event sink plus the per-window
	// metrics collector (whose recorder also feeds the Perfetto export).
	var events *telemetry.JSONL
	var eventsFile *os.File
	var tel *core.Telemetry
	if *metricsOut != "" || *eventsOut != "" || *perfetto != "" || *dashboard != "" {
		tcfg := core.TelemetryConfig{}
		if *eventsOut != "" {
			f, err := os.Create(*eventsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			eventsFile = f
			events = telemetry.NewJSONL(f)
			tcfg.Sinks = append(tcfg.Sinks, events)
		}
		if *perfetto == "" {
			tcfg.EventCap = -1 // no in-memory recorder needed
		}
		tel = sys.EnableTelemetry(tcfg)
	}

	// Ctrl-C / SIGTERM cancels the run at its next reconfiguration-window
	// boundary; the partial metrics of the completed prefix still print.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	res, runErr := sys.RunContext(ctx)
	stopSignals()
	if runErr != nil {
		var cancelled *core.CancelledError
		if errors.As(runErr, &cancelled) {
			fmt.Fprintf(os.Stderr, "cancelled by signal after %d windows; metrics cover the completed prefix\n", cancelled.Window)
		} else {
			fmt.Fprintln(os.Stderr, runErr)
			os.Exit(1)
		}
	}
	printResult(res, cfg)
	if pp := sys.PhaseProfile(); pp != nil {
		fmt.Fprintln(os.Stderr)
		core.FormatPhaseReport(os.Stderr, pp.Report())
		if *phaseProfOut != "" {
			if err := writeFile(*phaseProfOut, func(f *os.File) error {
				return pp.Registry().WriteMetricsJSONL(f)
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "wrote", *phaseProfOut)
		}
	}
	if stageRec != nil {
		fmt.Println("\nLock-Step protocol trace (cycle, board, stage):")
		for _, ev := range stageRec.Events() {
			fmt.Printf("  %8d  board %d  %s\n", ev.Cycle, ev.Board, ev.Label)
		}
	}
	if tracer != nil {
		printJourneys(tracer, *journey)
	}

	if events != nil {
		if err := events.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", *eventsOut)
	}
	if tel != nil {
		if *metricsOut != "" {
			if err := writeFile(*metricsOut, func(f *os.File) error {
				return tel.Registry().WriteMetricsJSONL(f)
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "wrote", *metricsOut)
		}
		if *perfetto != "" {
			if err := writeFile(*perfetto, func(f *os.File) error {
				return telemetry.WriteChromeTrace(f, tel.Recorder().Events(), tel.Registry(), cfg.CycleNS, cfg.Boards)
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "wrote", *perfetto)
		}
		if *dashboard != "" {
			title := fmt.Sprintf("E-RAPID %s, %s traffic, load %.2f — reconfiguration dashboard",
				res.Mode, res.Pattern, res.Load)
			if err := writeFile(*dashboard, func(f *os.File) error {
				return report.WriteDashboard(f, title, tel.Registry())
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "wrote", *dashboard)
		}
	}
}

// parseTiers parses the -tiers syntax "rack=BxD,count=R" into the
// two-tier Config.Tiers spec.
func parseTiers(s string) ([]core.TierSpec, error) {
	var b, d, r int
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-tiers: %q is not key=value (want rack=BxD,count=R)", part)
		}
		switch key {
		case "rack":
			bs, ds, ok := strings.Cut(val, "x")
			if !ok {
				return nil, fmt.Errorf("-tiers: rack=%q is not BxD", val)
			}
			var err error
			if b, err = strconv.Atoi(bs); err != nil {
				return nil, fmt.Errorf("-tiers: rack boards %q is not an integer", bs)
			}
			if d, err = strconv.Atoi(ds); err != nil {
				return nil, fmt.Errorf("-tiers: rack nodes %q is not an integer", ds)
			}
		case "count":
			var err error
			if r, err = strconv.Atoi(val); err != nil {
				return nil, fmt.Errorf("-tiers: count=%q is not an integer", val)
			}
		default:
			return nil, fmt.Errorf("-tiers: unknown key %q (want rack, count)", key)
		}
	}
	if b == 0 || d == 0 || r == 0 {
		return nil, errors.New("-tiers: need both rack=BxD and count=R")
	}
	return []core.TierSpec{{Boards: b, NodesPerBoard: d}, {Boards: r}}, nil
}

// runHier executes a multi-tier configuration through the hierarchical
// engine and prints the aggregate plus the per-tier breakdown.
func runHier(cfg core.Config, metricsOut, eventsOut string) {
	h, err := erapid.NewHier(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var events *telemetry.JSONL
	var eventsFile *os.File
	if eventsOut != "" {
		f, err := os.Create(eventsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		eventsFile = f
		events = telemetry.NewJSONL(f)
		h.AttachSink(events)
	}
	if metricsOut != "" {
		h.EnableTelemetry(core.TelemetryConfig{EventCap: -1})
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	res, runErr := h.RunContext(ctx)
	stopSignals()
	if runErr != nil {
		var cancelled *core.CancelledError
		if errors.As(runErr, &cancelled) {
			fmt.Fprintf(os.Stderr, "cancelled by signal after %d windows; metrics cover the completed subsystems\n", cancelled.Window)
		} else {
			fmt.Fprintln(os.Stderr, runErr)
			os.Exit(1)
		}
	}
	printHierResult(res, h, cfg)

	if events != nil {
		if err := events.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", eventsOut)
	}
	if metricsOut != "" {
		// One JSONL stream; the tierN/rackM/ series prefixes keep every
		// subsystem's metrics distinguishable.
		if err := writeFile(metricsOut, func(f *os.File) error {
			for _, ht := range h.Telemetries() {
				if err := ht.T.Registry().WriteMetricsJSONL(f); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", metricsOut)
	}
}

func printHierResult(r *core.Result, h *erapid.Hier, cfg core.Config) {
	top := h.Topology()
	fmt.Printf("E-RAPID %s, %d nodes (%d racks x %d) — %s, %s traffic\n",
		top, top.TotalNodes(), top.Racks(), top.RackNodes(), r.Mode, r.Pattern)
	if r.Policy != "" {
		fmt.Printf("  policy                %s\n", r.Policy)
	}
	fmt.Printf("  capacity N_c          %.5f pkt/node/cycle (uniform, analytic)\n", r.Capacity)
	fmt.Printf("  offered load          %.2f x N_c = %.5f pkt/node/cycle (measured %.5f)\n", r.Load, r.Rate, r.OfferedLoad)
	fmt.Printf("  accepted throughput   %.5f pkt/node/cycle (%.2f x N_c)\n", r.Throughput, r.NormalizedThroughput())
	fmt.Printf("  latency avg/p95       %.0f / %.0f cycles  (%d samples)\n",
		r.AvgLatency, r.P95Latency, r.Samples)
	fmt.Printf("  power dynamic/supply  %.1f / %.1f mW   (%.2f pJ/bit)\n",
		r.PowerDynamicMW, r.PowerSupplyMW, r.EnergyPerBitPJ)
	fmt.Printf("  simulated             %d cycles, injected %d, delivered %d",
		r.Cycles, r.Injected, r.Delivered)
	if r.Truncated {
		fmt.Printf(" [drain truncated: saturated]")
	}
	fmt.Println()
	for _, t := range r.Tiers {
		label := fmt.Sprintf("tier %d (fabric)", t.Tier)
		if t.Tier == 0 {
			label = fmt.Sprintf("tier %d (%d racks)", t.Tier, t.Systems)
		}
		fmt.Printf("  %-21s %.1f/%.1f mW supply (bound %.1f), lat %.0f, delivered %.4f, %d reassignments, %d ups/%d downs\n",
			label, t.PowerDynamicMW, t.PowerSupplyMW, t.SupplyBoundMW,
			t.AvgLatency, t.DeliveredFraction,
			t.Ctrl.Reassignments, t.Ctrl.LevelUps, t.Ctrl.LevelDowns)
	}
}

// writeFile creates path, runs write, and closes it, returning the
// first error.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printJourneys dumps the event journeys of the last n delivered packets
// still present in the trace ring.
func printJourneys(tr *trace.Tracer, n int) {
	evs := tr.Events()
	var ids []flit.PacketID
	seen := map[flit.PacketID]bool{}
	for i := len(evs) - 1; i >= 0 && len(ids) < n; i-- {
		if evs[i].Kind == trace.Deliver && !seen[evs[i].Packet] {
			seen[evs[i].Packet] = true
			ids = append(ids, evs[i].Packet)
		}
	}
	fmt.Printf("\npacket journeys (%d of %d delivered in trace window):\n", len(ids), tr.Count(trace.Deliver))
	for _, id := range ids {
		fmt.Println()
		for _, ev := range tr.Journey(id) {
			fmt.Println(" ", ev)
		}
	}
}

func printResult(r *core.Result, cfg core.Config) {
	fmt.Printf("E-RAPID R(1,%d,%d), %d nodes — %s, %s traffic\n",
		cfg.Boards, cfg.NodesPerBoard, cfg.Boards*cfg.NodesPerBoard, r.Mode, r.Pattern)
	if r.Policy != "" {
		// Only non-baseline runs print a policy line, keeping the default
		// output byte-identical to pre-policy builds.
		fmt.Printf("  policy                %s\n", r.Policy)
	}
	fmt.Printf("  capacity N_c          %.5f pkt/node/cycle (uniform, analytic)\n", r.Capacity)
	fmt.Printf("  offered load          %.2f x N_c = %.5f pkt/node/cycle (measured %.5f)\n", r.Load, r.Rate, r.OfferedLoad)
	fmt.Printf("  accepted throughput   %.5f pkt/node/cycle (%.2f x N_c)\n", r.Throughput, r.NormalizedThroughput())
	fmt.Printf("  latency avg/p50/p95   %.0f / %.0f / %.0f cycles  (%d samples)\n",
		r.AvgLatency, r.P50Latency, r.P95Latency, r.Samples)
	fmt.Printf("  power dynamic/supply  %.1f / %.1f mW   (%.2f pJ/bit)\n",
		r.PowerDynamicMW, r.PowerSupplyMW, r.EnergyPerBitPJ)
	fmt.Printf("  reconfiguration       %d reassignments (%d reclaims, %d failed), %d ring msgs\n",
		r.Ctrl.Reassignments, r.Ctrl.Reclaims, r.Ctrl.FailedMoves, r.Ctrl.MessagesSent)
	fmt.Printf("  power management      %d ups, %d downs, %d shutdowns, %d wakes\n",
		r.Ctrl.LevelUps, r.Ctrl.LevelDowns, r.Ctrl.Shutdowns, r.Wakes)
	if r.DegradedWindows != nil {
		f := r.Faults
		degraded := uint64(0)
		for _, w := range r.DegradedWindows {
			degraded += w
		}
		fmt.Printf("  faults                %d kills, %d degrades, %d sticks, %d ctrl drops, %d ctrl delays\n",
			f.LaserKills, f.LaserDegrades, f.LevelSticks, f.CtrlDrops, f.CtrlDelays)
		fmt.Printf("  availability          %.4f delivered fraction, %d dropped by fault, %d degraded board-windows, %d fault repairs\n",
			r.DeliveredFraction, r.DroppedByFault, degraded, r.Ctrl.FaultRepairs)
	}
	fmt.Printf("  simulated             %d cycles, injected %d, delivered %d",
		r.Cycles, r.Injected, r.Delivered)
	if r.Truncated {
		fmt.Printf(" [drain truncated: saturated]")
	}
	if r.Saturated() {
		fmt.Printf(" [beyond saturation]")
	}
	fmt.Println()
}
