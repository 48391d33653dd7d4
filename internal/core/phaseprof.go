// Phase profiler: per-phase wall time of the cycle loop, the evidence
// for where a run's time goes. When enabled (Config.PhaseProfile) the
// cycle loop accumulates the nanoseconds it spends in three phases —
// injector draws, component ticks, and the serial remainder (the cycle
// head plus the history/telemetry observers) — and flushes the totals
// into a dedicated telemetry Registry once per reconfiguration window.
//
// Off-path discipline: the profiler follows the PR-2 telemetry rule —
// a nil *PhaseProfile is the disabled state, every hot-path hook is a
// nil-receiver method that returns immediately, and nothing on the
// cycle path allocates in either state. The wall-clock measurements
// live only in the profiler's own registry, never in Result or the
// run's telemetry stream, so a profiled run stays bit-identical to an
// unprofiled one (and service result digests stay stable).
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// phaseProfCap bounds how many flushed windows the profiler's time
// series retain.
const phaseProfCap = 4096

// PhaseProfile records per-phase wall time. Create it via
// Config.PhaseProfile; read it via System.PhaseProfile. A nil
// PhaseProfile is the disabled state and every method is safe on it.
type PhaseProfile struct {
	reg    *telemetry.Registry
	window uint64
	boards int

	draw, tick, serial int64 // cumulative nanoseconds per phase
	windows            uint64
	cycles             uint64 // end cycle of the last flush

	sDraw, sTick, sSerial *telemetry.TimeSeries
}

// enablePhaseProfile attaches a fresh profiler to the system.
func (s *System) enablePhaseProfile() {
	pp := &PhaseProfile{
		reg:    telemetry.NewRegistry(phaseProfCap),
		window: s.cfg.Window,
		boards: len(s.boards),
	}
	pp.sDraw = pp.reg.Series("draw_ns", "ns")
	pp.sTick = pp.reg.Series("tick_ns", "ns")
	pp.sSerial = pp.reg.Series("serial_ns", "ns")
	s.phaseProf = pp
}

// PhaseProfile returns the profiler, or nil when Config.PhaseProfile
// was false.
func (s *System) PhaseProfile() *PhaseProfile { return s.phaseProf }

// start stamps the beginning of a phase; zero (and free) when
// disabled.
func (pp *PhaseProfile) start() time.Time {
	if pp == nil {
		return time.Time{}
	}
	return time.Now()
}

// addDraw credits injector-draw time.
func (pp *PhaseProfile) addDraw(t0 time.Time) {
	if pp == nil {
		return
	}
	pp.draw += int64(time.Since(t0))
}

// addTick credits component-tick time.
func (pp *PhaseProfile) addTick(t0 time.Time) {
	if pp == nil {
		return
	}
	pp.tick += int64(time.Since(t0))
}

// addSerial credits cycle-head and observer time.
func (pp *PhaseProfile) addSerial(t0 time.Time) {
	if pp == nil {
		return
	}
	pp.serial += int64(time.Since(t0))
}

// flush pushes the cumulative totals as one sample per series and
// marks the window; the cycle loop calls it at window boundaries.
// Cumulative samples make every series monotone — a window's own cost
// is the delta between adjacent samples.
func (pp *PhaseProfile) flush(endCycle uint64) {
	if pp == nil {
		return
	}
	pp.windows++
	pp.cycles = endCycle
	pp.sDraw.Push(float64(pp.draw))
	pp.sTick.Push(float64(pp.tick))
	pp.sSerial.Push(float64(pp.serial))
	pp.reg.EndWindow(pp.windows, endCycle)
}

// Registry exposes the profiler's time series (draw_ns, tick_ns,
// serial_ns — cumulative nanoseconds, one sample per flushed window)
// for JSONL export.
func (pp *PhaseProfile) Registry() *telemetry.Registry {
	if pp == nil {
		return nil
	}
	return pp.reg
}

// PhaseWorkerStats is the accumulated wall time per phase of the cycle
// loop.
type PhaseWorkerStats struct {
	Boards   int
	DrawNS   int64
	TickNS   int64
	SerialNS int64
}

// PhaseReport is a profiler snapshot: the phase totals plus how many
// flushed reconfiguration windows (Epochs) and cycles they cover.
// Workers holds one entry, since every run steps its cycles on one
// goroutine; a report with no data has none.
type PhaseReport struct {
	Workers []PhaseWorkerStats
	Epochs  uint64
	Cycles  uint64
}

// Report snapshots the current totals. Call it only between steps (or
// after the run). A nil profiler reports zero values.
func (pp *PhaseProfile) Report() PhaseReport {
	if pp == nil {
		return PhaseReport{}
	}
	return PhaseReport{
		Workers: []PhaseWorkerStats{{Boards: pp.boards, DrawNS: pp.draw, TickNS: pp.tick, SerialNS: pp.serial}},
		Epochs:  pp.windows,
		Cycles:  pp.cycles,
	}
}

// PhaseAggregate sums the phase reports of many runs (a sweep's
// points). Safe for concurrent Add.
type PhaseAggregate struct {
	mu     sync.Mutex
	runs   int
	report PhaseReport
}

// Add folds one run's report into the aggregate.
func (a *PhaseAggregate) Add(r PhaseReport) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	a.report.Epochs += r.Epochs
	a.report.Cycles += r.Cycles
	for _, w := range r.Workers {
		if len(a.report.Workers) == 0 {
			a.report.Workers = []PhaseWorkerStats{{}}
		}
		t := &a.report.Workers[0]
		t.Boards = max(t.Boards, w.Boards)
		t.DrawNS += w.DrawNS
		t.TickNS += w.TickNS
		t.SerialNS += w.SerialNS
	}
}

// Runs returns how many reports were added.
func (a *PhaseAggregate) Runs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.runs
}

// Report renders the summed totals as one PhaseReport.
func (a *PhaseAggregate) Report() PhaseReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.report
	r.Workers = append([]PhaseWorkerStats(nil), r.Workers...)
	return r
}

// FormatPhaseReport writes the human-readable summary the
// -phase-profile CLI flags print: each phase's wall time and its share
// of the total.
func FormatPhaseReport(w io.Writer, r PhaseReport) {
	if len(r.Workers) == 0 {
		fmt.Fprintln(w, "phase profile: no data (profiler off or nothing stepped)")
		return
	}
	ws := r.Workers[0]
	fmt.Fprintf(w, "phase profile: %d boards, %d windows, %d cycles\n", ws.Boards, r.Epochs, r.Cycles)
	total := ws.DrawNS + ws.TickNS + ws.SerialNS
	for _, ph := range []struct {
		name string
		ns   int64
	}{{"draw", ws.DrawNS}, {"tick", ws.TickNS}, {"serial", ws.SerialNS}} {
		var share float64
		if total > 0 {
			share = 100 * float64(ph.ns) / float64(total)
		}
		fmt.Fprintf(w, "  %-7s %12s %6.1f%%\n", ph.name, time.Duration(ph.ns), share)
	}
}
