// Command perfbench is the repository benchmark: it drives the
// simulator through its public Go API, the way the CLIs, the sweep
// fleet and the erapid-serve job service do, and reports end-to-end
// metrics (untraced runs) or per-layer metrics (traced runs) for one
// workload.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload paper64 --seed 1 --seconds 20 --trace 0
//
// run.py builds this package and runs it with the same flags. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; a human-readable table goes to
// standard error. Traced runs also write their spans and counts to
// .bench_build/trace/<workload>-seed<N>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// Each run repeats its set-up at least setupMinReps times, and more
// (up to setupMaxReps) until setupMinTime has been spent; setup_s is
// the median repetition. A repetition starts from a collected heap and
// runs the set-up back to back until setupBatchTime has been spent on
// it, and counts the mean of those set-ups: a microsecond set-up timed
// alone right after each collection spread by up to 80% from run to
// run.
const (
	setupMinReps   = 7
	setupMaxReps   = 101
	setupMinTime   = 200 * time.Millisecond
	setupBatchTime = time.Millisecond
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	// record, when positive, runs the first record job-list positions
	// regardless of time and writes their digests into digestsPath.
	record      int
	digestsPath string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final stdout line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what runSim or runService hands back to run.
type outcome struct {
	endToEnd map[string]metric
	perLayer map[string]metric
	// trace is the traced run's span/count document (nil untraced).
	trace *traceDoc
	// notes are printed under the table.
	notes []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: paper64, board64-complement, hier1k or service-mixed")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured duration in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory for traced-run span files")
	flag.IntVar(&o.record, "record", 0, "record the result digests of the first N job-list positions (default seed only)")
	flag.StringVar(&o.digestsPath, "digests", filepath.Join("perfbench", "digests.json"), "digest file written by -record")
	flag.Parse()
	o.trace = *traceFlag == 1
	if err := run(context.Background(), o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report.
func run(ctx context.Context, o options, stdout, stderr io.Writer) error {
	if !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if o.record > 0 && o.seed != defaultSeed {
		return fmt.Errorf("-record needs the default seed %d", defaultSeed)
	}
	chk := &checker{}
	if o.record > 0 {
		chk.record = []string{}
	} else {
		exp, err := expectedDigests(o.workload, o.seed)
		if err != nil {
			return err
		}
		chk.expected = exp
	}
	var (
		out outcome
		err error
	)
	if o.workload == wlService {
		out, err = runService(ctx, o, chk)
	} else {
		out, err = runSim(ctx, o, chk)
	}
	if err != nil {
		return err
	}
	out.endToEnd["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	if o.record > 0 {
		return writeDigests(o, chk.record)
	}

	metrics := out.endToEnd
	if o.trace {
		metrics = out.perLayer
		out.trace.Workload, out.trace.Seed = o.workload, o.seed
		out.trace.Metrics = metrics
		out.trace.Notes = out.notes
		if err := out.trace.write(o.traceDir); err != nil {
			return err
		}
	}
	printTable(stderr, o, metrics, chk, out.notes)
	rep := report{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// printTable writes every metric by name with its unit, the error rate
// and the notes.
func printTable(w io.Writer, o options, metrics map[string]metric, chk *checker, notes []string) {
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g: %s metrics\n", o.workload, o.seed, o.seconds, kind)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	rate := 0.0
	if chk.attempted > 0 {
		rate = float64(chk.failed) / float64(chk.attempted)
	}
	fmt.Fprintf(w, "  %-30s %16.6g ratio (%d failed of %d attempted)\n", "error_rate", rate, chk.failed, chk.attempted)
	for _, n := range notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// writeDigests stores the recorded digests of o.workload in the digest
// file, keeping the other workloads' entries.
func writeDigests(o options, rec []string) error {
	f := digestFile{Seed: defaultSeed, Workloads: map[string][]string{}}
	if data, err := os.ReadFile(o.digestsPath); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("parsing %s: %w", o.digestsPath, err)
		}
		if f.Workloads == nil {
			f.Workloads = map[string][]string{}
		}
	}
	f.Workloads[o.workload] = rec
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.digestsPath, append(data, '\n'), 0o644)
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) / 1024
}

// measureSetup repeats setup (see setupMinReps) and returns the median
// duration in seconds together with the last set-up's state; tr
// records each repetition as a "setup" span. Every set-up but the last
// is torn down and released before the next, outside the time counted.
func measureSetup[T any](tr *tracer, setup func() (T, func(), error)) (float64, T, error) {
	var (
		state, none T
		teardown    func()
		times       []float64
		spent       time.Duration
	)
	for rep := 0; ; rep++ {
		var (
			batch  time.Duration
			n      int
			first  time.Time
			t0, t1 time.Time
		)
		for ; batch < setupBatchTime; n++ {
			if teardown != nil {
				teardown()
			}
			// Let the collector take the previous set-up's state.
			state, teardown = none, nil
			if n == 0 {
				runtime.GC()
			}
			t0 = time.Now()
			s, td, err := setup()
			if err != nil {
				return 0, state, fmt.Errorf("set-up: %w", err)
			}
			t1 = time.Now()
			if n == 0 {
				first = t0
			}
			state, teardown = s, td
			batch += t1.Sub(t0)
		}
		tr.add(0, -1, "setup", first, t1)
		times = append(times, batch.Seconds()/float64(n))
		spent += batch
		if rep+1 >= setupMaxReps || (rep+1 >= setupMinReps && spent >= setupMinTime) {
			return median(times), state, nil
		}
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
