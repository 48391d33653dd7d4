package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/traffic"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlPaper64 = "paper64"
	wlBoard64 = "board64-complement"
	wlHier1k  = "hier1k"
	wlService = "service-mixed"
)

var workloadNames = []string{wlPaper64, wlBoard64, wlHier1k, wlService}

// subSeed derives the simulation seed of job i from the workload seed
// (SplitMix64 finalizer), so job seeds are spread even for adjacent
// workload seeds.
func subSeed(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(i) + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// simJobs returns the job list of a simulation workload. The timed
// loop cycles through it, so a run repeats each configuration and the
// pooled Runner resets rather than rebuilds.
func simJobs(workload string, seed uint64) ([]core.Config, error) {
	var out []core.Config
	switch workload {
	case wlPaper64:
		// The paper's 64-node system, every mode, uniform at load 0.5 on
		// the default 20k/10k schedule; two seeds per mode.
		for s := 0; s < 2; s++ {
			for _, m := range core.Modes() {
				cfg := core.DefaultConfig(m)
				cfg.Seed = subSeed(seed, len(out))
				out = append(out, cfg)
			}
		}
	case wlBoard64:
		// 64 boards × 8 nodes under complement traffic: LS control and the
		// O(B³) laser slabs do real work (DBR reassignments every window).
		for s := 0; s < 2; s++ {
			cfg := core.DefaultConfig(core.PB)
			cfg.Boards, cfg.NodesPerBoard = 64, 8
			cfg.Pattern = traffic.Complement
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainLimitCycles = 8000, 4000, 20000
			cfg.Seed = subSeed(seed, s)
			out = append(out, cfg)
		}
	case wlHier1k:
		// 16 racks of 8×8 under a 16-board inter-rack fabric (1,024 nodes).
		for s := 0; s < 4; s++ {
			cfg := core.DefaultConfig(core.PB)
			cfg.Tiers = []core.TierSpec{{Boards: 8, NodesPerBoard: 8}, {Boards: 16}}
			cfg.Window = 1000
			cfg.WarmupCycles, cfg.MeasureCycles = 2000, 2000
			cfg.Seed = subSeed(seed, s)
			out = append(out, cfg)
		}
	default:
		return nil, fmt.Errorf("not a simulation workload: %q", workload)
	}
	return out, nil
}

// The service-mixed stream is built in blocks of blockLen positions
// with fixed shares, shuffled within the block. The mix itself — kinds,
// modes, patterns, loads, order, which job a repeat copies — is drawn
// from the fixed serviceMixSeed, and the workload seed picks every job's
// simulation seed, as on the simulation workloads: every seed then
// offers the same work, and a run's cost does not hinge on how many
// saturating jobs its seed happened to draw (that alone moved jobs_per_s
// by about 10% between seeds). A repeat is an exact resubmission of an
// earlier fresh run job (a cache hit, or a dedupe while the original is
// still in flight); a small job is a 4×4 run, whose shape change makes
// the worker's Runner rebuild instead of Reset; a sweep posts a
// 4-mode × 1-load figure sweep, one per paper pattern in each block.
// The fresh 8×8 runs cover every mode × paper pattern once per load
// tercile of 0.1–0.9.
const (
	blockLen     = 80
	blockRepeats = 20 // 25%
	blockSmall   = 8  // 10%
	blockSweeps  = 4  // 5%
	// serviceJobCap bounds the generated stream; the closed loop stops
	// early if it ever runs out.
	serviceJobCap = 4096
	// repeatMinGap and repeatWindow pick a repeat's original among the
	// fresh run jobs submitted at least repeatMinGap and at most
	// repeatWindow positions earlier: old enough to have finished in a
	// two-client loop, recent enough to still be in the 256-entry cache.
	repeatMinGap = 4
	repeatWindow = 128
	// serviceMixSeed seeds the draw of the stream's mix.
	serviceMixSeed = 1
)

// slotKind is what one position of a block holds.
type slotKind int

const (
	slotFresh slotKind = iota
	slotRepeat
	slotSmall
	slotSweep
)

// slot is one position of a block before its config is drawn.
type slot struct {
	kind    slotKind
	mode    core.Mode
	pattern string
	tercile int
}

// blockSlots returns one block's slots in a seeded random order.
func blockSlots(r *rand.Rand) []slot {
	pats := traffic.PaperNames()
	slots := make([]slot, 0, blockLen)
	for _, m := range core.Modes() {
		for _, p := range pats {
			for t := 0; t < 3; t++ {
				slots = append(slots, slot{kind: slotFresh, mode: m, pattern: p, tercile: t})
			}
		}
	}
	for i := 0; i < blockSweeps; i++ {
		slots = append(slots, slot{kind: slotSweep, mode: core.PB, pattern: pats[i%len(pats)], tercile: -1})
	}
	for i := 0; i < blockSmall; i++ {
		slots = append(slots, slot{kind: slotSmall})
	}
	for i := 0; i < blockRepeats; i++ {
		slots = append(slots, slot{kind: slotRepeat})
	}
	r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots
}

// svcJob is one entry of the service-mixed stream.
type svcJob struct {
	Kind string // "run" or "sweep"
	// RepeatOf is the position of the job this one repeats, -1 for a
	// fresh job.
	RepeatOf int
	// Cfg is the run config, or the sweep's base config.
	Cfg core.Config
	// Body is the HTTP request document.
	Body json.RawMessage
}

// sweepDoc is the POST /v1/sweeps request document.
type sweepDoc struct {
	Base     json.RawMessage `json:"base"`
	Patterns []string        `json:"patterns"`
	Modes    []string        `json:"modes"`
	Loads    []float64       `json:"loads"`
}

// serviceCfg draws the load of one run on a 1k/1k/20k schedule;
// tercile ≥ 0 confines it to that third of 0.1–0.9.
func serviceCfg(r *rand.Rand, boards, nodes int, mode core.Mode, pattern string, tercile int) core.Config {
	cfg := core.DefaultConfig(mode)
	cfg.Boards, cfg.NodesPerBoard = boards, nodes
	cfg.Pattern = pattern
	lo, width := 0.1, 0.8
	if tercile >= 0 {
		width /= 3
		lo += float64(tercile) * width
	}
	cfg.Load = math.Round((lo+width*r.Float64())*100) / 100
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainLimitCycles = 1000, 1000, 20000
	return cfg
}

// randomCfg draws a run of any mode, paper pattern and load.
func randomCfg(r *rand.Rand, boards, nodes int) core.Config {
	modes, pats := core.Modes(), traffic.PaperNames()
	m := modes[r.Intn(len(modes))]
	return serviceCfg(r, boards, nodes, m, pats[r.Intn(len(pats))], -1)
}

// serviceJobs generates the service-mixed stream for a workload seed.
func serviceJobs(seed uint64) ([]svcJob, error) {
	r := rand.New(rand.NewSource(serviceMixSeed))
	jobs := make([]svcJob, 0, serviceJobCap)
	var fresh []int // positions of fresh run jobs, ascending
	var slots []slot
	for pos := 0; pos < serviceJobCap; pos++ {
		if len(slots) == 0 {
			slots = blockSlots(r)
		}
		sl := slots[0]
		slots = slots[1:]
		j := svcJob{Kind: "run", RepeatOf: -1}
		switch sl.kind {
		case slotFresh:
			j.Cfg = serviceCfg(r, 8, 8, sl.mode, sl.pattern, sl.tercile)
		case slotSweep:
			j.Kind = "sweep"
			j.Cfg = serviceCfg(r, 8, 8, sl.mode, sl.pattern, -1)
		case slotSmall:
			j.Cfg = randomCfg(r, 4, 4)
		case slotRepeat:
			if cand := repeatCandidates(fresh, pos); len(cand) > 0 {
				orig := cand[r.Intn(len(cand))]
				j = jobs[orig]
				j.RepeatOf = orig
				break
			}
			// Too early in the stream for a repeat.
			j.Cfg = randomCfg(r, 8, 8)
		}
		if j.RepeatOf < 0 {
			j.Cfg.Seed = subSeed(seed, pos)
			body, err := requestBody(j)
			if err != nil {
				return nil, fmt.Errorf("encoding job %d: %w", pos, err)
			}
			j.Body = body
			if j.Kind == "run" {
				fresh = append(fresh, pos)
			}
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// repeatCandidates returns the fresh run positions a repeat at pos may
// copy: between repeatWindow and repeatMinGap positions back.
func repeatCandidates(fresh []int, pos int) []int {
	lo := sort.SearchInts(fresh, pos-repeatWindow)
	hi := sort.SearchInts(fresh, pos-repeatMinGap+1)
	return fresh[lo:hi]
}

// requestBody encodes a fresh job's HTTP request document.
func requestBody(j svcJob) (json.RawMessage, error) {
	cfg, err := json.Marshal(j.Cfg)
	if err != nil || j.Kind == "run" {
		return cfg, err
	}
	modes := make([]string, 0, 4)
	for _, m := range core.Modes() {
		modes = append(modes, m.String())
	}
	return json.Marshal(sweepDoc{
		Base:     cfg,
		Patterns: []string{j.Cfg.Pattern},
		Modes:    modes,
		Loads:    []float64{j.Cfg.Load},
	})
}
