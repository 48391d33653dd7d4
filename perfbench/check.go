package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/analytic"
	"repro/internal/core"
)

// defaultSeed is the workload seed whose per-job result digests are
// recorded in digests.json.
const defaultSeed = 1

// digestLen is how many leading hex digits of each SHA-256 result
// digest digests.json records (64 bits).
const digestLen = 16

//go:embed digests.json
var digestsJSON []byte

// digestFile is the layout of digests.json: per workload, the expected
// result digest prefix of each job-list position on defaultSeed ("" for
// positions whose digest is checked another way, such as repeats).
type digestFile struct {
	Seed      uint64              `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

// expectedDigests returns the recorded digests of a workload for seed,
// or nil when that seed has none recorded.
func expectedDigests(workload string, seed uint64) ([]string, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return nil, fmt.Errorf("parsing digests.json: %w", err)
	}
	if seed != f.Seed {
		return nil, nil
	}
	return f.Workloads[workload], nil
}

// digestOf returns the hex SHA-256 of data.
func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// resultDigest returns the digest of a Result's canonical JSON, the
// bytes the service stores and digests for the same run.
func resultDigest(res *core.Result) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return digestOf(data), nil
}

// checker validates job outputs. A mismatch is counted as a failed
// operation and reported; it never aborts the run.
type checker struct {
	// expected holds recorded digest prefixes by job-list position; nil
	// on seeds without a recording, which check invariants instead.
	expected []string
	// record, when non-nil, collects digests by position; expected is
	// then nil, so the outputs are checked against the invariants.
	record []string

	attempted, failed int
	shown             int
}

// maxShown bounds how many failures are printed.
const maxShown = 10

// fail counts one failed operation and prints its reason.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.shown < maxShown {
		c.shown++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// opError counts an operation that returned an error instead of a
// result.
func (c *checker) opError(job int, err error) {
	c.attempted++
	c.fail("job %d: %v", job, err)
}

// job checks one completed job at job-list position pos: its full
// result digest against the recording when there is one, otherwise the
// invariants of every Result it produced (results[i] ran cfgs[i]). It
// reports whether the job passed.
func (c *checker) job(pos int, digest string, cfgs []core.Config, results []*core.Result) bool {
	c.attempted++
	if c.record != nil {
		for len(c.record) <= pos {
			c.record = append(c.record, "")
		}
		c.record[pos] = digest[:digestLen]
	}
	if pos < len(c.expected) && c.expected[pos] != "" {
		if got := digest[:digestLen]; got != c.expected[pos] {
			c.fail("job %d: result digest %s, recorded %s", pos, got, c.expected[pos])
			return false
		}
		return true
	}
	for i, res := range results {
		if err := invariants(cfgs[i], res); err != nil {
			c.fail("job %d: %v", pos, err)
			return false
		}
	}
	return true
}

// invariants checks what every healthy run of the benchmark's configs
// must satisfy.
//
// A run may stop at its drain limit (Truncated) only when its offered
// rate exceeds the analytic saturation bound of its pattern on the
// static network: below that bound the fabric keeps up even without
// bandwidth re-allocation, so every labeled packet must drain. A
// truncated run must stop exactly at the limit.
//
// Packets injected during the drain may still be in flight when the
// last labeled packet lands, so conservation is Delivered +
// DroppedByFault ≤ Injected; on completed runs the labeled packets are
// all accounted for (DeliveredFraction == 1).
func invariants(cfg core.Config, res *core.Result) error {
	switch {
	case res == nil:
		return fmt.Errorf("no result")
	case res.Delivered+res.DroppedByFault > res.Injected:
		return fmt.Errorf("delivered %d + dropped %d > injected %d", res.Delivered, res.DroppedByFault, res.Injected)
	case res.Samples <= 0:
		return fmt.Errorf("no latency samples")
	case !res.Truncated && res.DeliveredFraction != 1:
		return fmt.Errorf("delivered fraction %v, want 1", res.DeliveredFraction)
	case !res.Truncated:
		return nil
	}
	if limit := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainLimitCycles; res.Cycles != limit {
		return fmt.Errorf("truncated at %d cycles, not at the drain limit %d", res.Cycles, limit)
	}
	if cfg.MultiTier() {
		return fmt.Errorf("hierarchical run truncated at %d cycles", res.Cycles)
	}
	bound, err := analytic.SaturationBound(cfg, cfg.Pattern, false)
	if err != nil {
		return err
	}
	if cfg.Rate() <= bound {
		return fmt.Errorf("truncated at %d cycles below the static saturation bound (rate %.4g ≤ %.4g)", res.Cycles, cfg.Rate(), bound)
	}
	return nil
}
