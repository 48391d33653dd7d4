package sweep

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
)

// Replicated aggregates one configuration across independent seeds.
type Replicated struct {
	Load  float64
	Seeds []uint64
	// Runs holds the per-seed results, in seed order.
	Runs []*core.Result

	// Aggregates over the runs (packets/node/cycle, cycles, mW).
	Throughput stats.Online
	AvgLatency stats.Online
	DynamicMW  stats.Online
	SupplyMW   stats.Online
}

// ThroughputCI95 returns the mean accepted throughput and the half-width
// of its 95% confidence interval (normal approximation; adequate for the
// ≥ 5 replications these experiments use).
func (r *Replicated) ThroughputCI95() (mean, half float64) {
	return ci95(&r.Throughput)
}

// LatencyCI95 returns the mean latency and 95% CI half-width.
func (r *Replicated) LatencyCI95() (mean, half float64) {
	return ci95(&r.AvgLatency)
}

// PowerCI95 returns the mean dynamic power and 95% CI half-width.
func (r *Replicated) PowerCI95() (mean, half float64) {
	return ci95(&r.DynamicMW)
}

func ci95(o *stats.Online) (mean, half float64) {
	mean = o.Mean()
	if o.N() < 2 {
		return mean, 0
	}
	half = 1.96 * o.Std() / math.Sqrt(float64(o.N()))
	return mean, half
}

// ReplicateRequest is a Request run across several seeds per point.
type ReplicateRequest struct {
	Base    core.Config
	Pattern string
	Mode    core.Mode
	Loads   []float64
	Seeds   []uint64
	// Workers is the number of concurrent runs; 0 (or negative) means
	// one per available CPU (runtime.GOMAXPROCS(0)). Each run steps on
	// one goroutine, so this is the whole parallelism budget.
	Workers int
	// OnResult, when set, is called once per completed run, serialized
	// under the sweep's lock (callbacks never run concurrently, but
	// arrive in completion order, not (load, seed) order).
	OnResult func(load float64, seed uint64, res *core.Result)
}

// Replicate runs every (load, seed) combination in parallel and returns
// one aggregate per load, in load order.
func Replicate(req ReplicateRequest) ([]*Replicated, error) {
	if len(req.Loads) == 0 || len(req.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: replicate needs loads and seeds")
	}
	out := make([]*Replicated, len(req.Loads))
	for i, load := range req.Loads {
		out[i] = &Replicated{
			Load:  load,
			Seeds: req.Seeds,
			Runs:  make([]*core.Result, len(req.Seeds)),
		}
	}

	type job struct{ li, si int }
	var jobs []job
	for li := range req.Loads {
		for si := range req.Seeds {
			jobs = append(jobs, job{li, si})
		}
	}
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var (
		wg   sync.WaitGroup
		next = make(chan job)
		mu   sync.Mutex
		err1 error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every job shares one topology, so each worker reuses a single
			// pooled system across its whole job stream (core.Runner resets
			// it per job instead of reconstructing).
			var runner core.Runner
			for j := range next {
				cfg := req.Base
				cfg.Pattern = req.Pattern
				cfg.Mode = req.Mode
				cfg.Load = req.Loads[j.li]
				cfg.Seed = req.Seeds[j.si]
				res, err := runner.Run(cfg)
				mu.Lock()
				if err != nil && err1 == nil {
					err1 = err
				}
				if err == nil {
					out[j.li].Runs[j.si] = res
					if req.OnResult != nil {
						req.OnResult(req.Loads[j.li], req.Seeds[j.si], res)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if err1 != nil {
		return nil, err1
	}
	for _, r := range out {
		for _, run := range r.Runs {
			r.Throughput.Add(run.Throughput)
			r.AvgLatency.Add(run.AvgLatency)
			r.DynamicMW.Add(run.PowerDynamicMW)
			r.SupplyMW.Add(run.PowerSupplyMW)
		}
	}
	return out, nil
}
