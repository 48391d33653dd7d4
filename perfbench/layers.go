package main

import "repro/internal/core"

// perLayerUnits lists every per-layer metric with its unit. Every traced
// run reports all of them; a layer the workload does not exercise, or
// cannot be observed from outside on it, reads 0 (see README.md for
// which metric applies where).
var perLayerUnits = map[string]string{
	"core.setup_ms":              "ms",
	"core.rebuild_ratio":         "ratio",
	"core.simulate_ns_per_cycle": "ns",
	"traffic.draw_ns_per_cycle":  "ns",
	"tick.ns_per_cycle":          "ns",
	"serial.ns_per_cycle":        "ns",
	"trace.coverage":             "ratio",
	"trace.overhead":             "ratio",
	"traffic.injected_per_cycle": "1/cycle",
	"optical.sent_per_cycle":     "1/cycle",
	"optical.level_transitions":  "count",
	"sim.events_per_cycle":       "1/cycle",
	"ctrl.messages_per_window":   "1/window",
	"ctrl.reassignments":         "count",
	"ctrl.failed_move_ratio":     "ratio",
	"ctrl.busy_cycles":           "count",
	"stats.samples":              "count",
	"hier.rack_s":                "s",
	"hier.rack_max_s":            "s",
	"hier.fabric_s":              "s",
	"service.submit_hit_ms":      "ms",
	"service.submit_miss_ms":     "ms",
	"service.fetch_ms":           "ms",
	"service.queue_wait_ms":      "ms",
	"service.run_ms":             "ms",
	"service.cache_hit_ratio":    "ratio",
	"service.dedupe_ratio":       "ratio",
	"sweep.run_ms":               "ms",
}

// newLayerMetrics returns every per-layer metric at 0.
func newLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		m[name] = metric{0, unit}
	}
	return m
}

// set assigns a per-layer metric's value, keeping its unit.
func set(m map[string]metric, name string, v float64) {
	m[name] = metric{v, perLayerUnits[name]}
}

// layerCounts accumulates the exact counts of the counted jobs. They
// depend only on the configs and the program, never on timing, so two
// traced runs of one seed report them identically.
type layerCounts struct {
	jobs             uint64
	cycles           uint64
	windows          float64
	injected         uint64
	engineEvents     uint64
	laserSent        uint64
	levelTransitions uint64
	messages         uint64
	reassignments    uint64
	failedMoves      uint64
	busyCycles       uint64
	samples          uint64
}

// addResult folds in the counts a Result carries; window is the run's
// reconfiguration period.
func (c *layerCounts) addResult(res *core.Result, window uint64) {
	c.jobs++
	c.cycles += res.Cycles
	c.windows += float64(res.Cycles) / float64(window)
	c.injected += res.Injected
	c.messages += res.Ctrl.MessagesSent
	c.reassignments += res.Ctrl.Reassignments
	c.failedMoves += res.Ctrl.FailedMoves
	c.busyCycles += res.Ctrl.PowerCycleBusy + res.Ctrl.BandwidthCycleBusy
	c.samples += uint64(res.Samples)
}

// addSystem folds in the counts only the assembled system exposes:
// engine events and per-laser packet and level-transition counters.
func (c *layerCounts) addSystem(sys *core.System) {
	c.engineEvents += sys.Engine().Executed()
	f := sys.Fabric()
	b := sys.Topology().Boards()
	for s := 0; s < b; s++ {
		for w := 1; w < b; w++ {
			for d := 0; d < b; d++ {
				if l := f.Laser(s, w, d); l != nil {
					c.laserSent += l.Sent()
					c.levelTransitions += l.Transitions()
				}
			}
		}
	}
}

// fill writes the count metrics.
func (c *layerCounts) fill(m map[string]metric) {
	cyc := float64(c.cycles)
	set(m, "traffic.injected_per_cycle", ratio(float64(c.injected), cyc))
	set(m, "optical.sent_per_cycle", ratio(float64(c.laserSent), cyc))
	set(m, "optical.level_transitions", float64(c.levelTransitions))
	set(m, "sim.events_per_cycle", ratio(float64(c.engineEvents), cyc))
	set(m, "ctrl.messages_per_window", ratio(float64(c.messages), c.windows))
	set(m, "ctrl.reassignments", float64(c.reassignments))
	set(m, "ctrl.failed_move_ratio", ratio(float64(c.failedMoves), float64(c.reassignments+c.failedMoves)))
	set(m, "ctrl.busy_cycles", float64(c.busyCycles))
	set(m, "stats.samples", float64(c.samples))
}

// asMap returns the raw counts for the trace file.
func (c *layerCounts) asMap() map[string]uint64 {
	return map[string]uint64{
		"jobs":               c.jobs,
		"cycles":             c.cycles,
		"injected":           c.injected,
		"engine_events":      c.engineEvents,
		"laser_sent":         c.laserSent,
		"level_transitions":  c.levelTransitions,
		"ctrl_messages":      c.messages,
		"ctrl_reassignments": c.reassignments,
		"ctrl_failed_moves":  c.failedMoves,
		"ctrl_busy_cycles":   c.busyCycles,
		"samples":            c.samples,
	}
}
