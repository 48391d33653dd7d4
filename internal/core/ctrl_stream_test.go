package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// ctrlStreamConfigs are the runs whose complete observable behaviour
// TestCtrlStreamGolden pins: every mode under complement traffic (the
// pattern that makes DBR move channels), a 16-board ring, the faulted
// reference run (timeouts, retries, stale messages, abandoned cycles)
// and heavy control-ring loss.
func ctrlStreamConfigs() []struct {
	name string
	cfg  Config
} {
	type named = struct {
		name string
		cfg  Config
	}
	var out []named
	for _, m := range []Mode{NPNB, PNB, NPB, PB} {
		cfg := fastConfig(m)
		cfg.Pattern = traffic.Complement
		cfg.Load = 0.5
		out = append(out, named{"complement-" + m.String(), cfg})
	}
	big := fastConfig(PB)
	big.Boards = 16
	big.NodesPerBoard = 2
	big.Pattern = traffic.Complement
	big.Load = 0.5
	big.WarmupCycles, big.MeasureCycles = 2000, 2000
	out = append(out, named{"complement-P-B-16board", big})

	faulted := fastConfig(PB)
	faulted.Pattern = traffic.Complement
	faulted.Load = 0.4
	faulted.Seed = 12345
	faulted.Faults = faultSpec()
	out = append(out, named{"faulted-run", faulted})

	lossy := fastConfig(PB)
	lossy.Pattern = traffic.Complement
	lossy.Load = 0.3
	lossy.Seed = 3
	lossy.Faults = &fault.Spec{Seed: 11, CtrlDropRate: 0.2}
	out = append(out, named{"ctrl-drop-0.2", lossy})
	return out
}

// TestCtrlStreamGolden pins the Lock-Step controller's behaviour end to
// end: for each config, the SHA-256 of the full JSONL telemetry event
// stream (every stage entry, laser transition, reassignment, ring fault
// and packet event, in order) and of the Result JSON must match
// testdata/ctrl_stream.golden. Regenerate with -update only after an
// intentional behaviour change.
func TestCtrlStreamGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range ctrlStreamConfigs() {
		s, err := NewSystem(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var evBuf bytes.Buffer
		jsonl := telemetry.NewJSONL(&evBuf)
		s.AttachSink(jsonl)
		res := s.Run()
		if err := jsonl.Flush(); err != nil {
			t.Fatal(err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s events %x result %x\n", c.name, sha256.Sum256(evBuf.Bytes()), sha256.Sum256(resJSON))
	}
	checkGolden(t, filepath.Join("testdata", "ctrl_stream.golden"), b.String())
}

// checkGolden compares got with the golden file, rewriting it first
// under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("%s diverged:\ngot:\n%swant:\n%s", golden, got, want)
	}
}
