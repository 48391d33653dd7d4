package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestDumpConfigOmitsWorkers runs the -dump-config path of main and
// checks the written config carries no Workers key: the field is
// deprecated and ignored, so a dump must not pin a value for it.
func TestDumpConfigOmitsWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = []string{"erapid", "-boards", "4", "-nodes", "2", "-dump-config", path}
	flag.CommandLine = flag.NewFlagSet("erapid", flag.ContinueOnError)
	main()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not a JSON object: %v\n%s", err, data)
	}
	if _, ok := doc["Boards"]; !ok {
		t.Fatalf("dump lacks Boards; not a config:\n%s", data)
	}
	if v, ok := doc["Workers"]; ok {
		t.Errorf("dump carries \"Workers\": %s", v)
	}
	cfg, err := core.LoadConfig(path, core.Config{})
	if err != nil {
		t.Fatalf("dumped config does not load: %v", err)
	}
	if cfg.Boards != 4 || cfg.NodesPerBoard != 2 {
		t.Errorf("dumped shape = %dx%d, want 4x2", cfg.Boards, cfg.NodesPerBoard)
	}
}

func TestParseTiers(t *testing.T) {
	got, err := parseTiers("rack=8x8,count=16")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.TierSpec{{Boards: 8, NodesPerBoard: 8}, {Boards: 16}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTiers = %+v, want %+v", got, want)
	}

	// Key order is free.
	got, err = parseTiers("count=4,rack=2x3")
	if err != nil {
		t.Fatal(err)
	}
	want = []core.TierSpec{{Boards: 2, NodesPerBoard: 3}, {Boards: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTiers = %+v, want %+v", got, want)
	}

	for _, bad := range []string{
		"",
		"rack=8x8",
		"count=16",
		"rack=8,count=16",
		"rack=8x,count=16",
		"rack=ax8,count=16",
		"rack=8x8,count=b",
		"rack=8x8;count=16",
		"rack=8x8,count=16,depth=2",
	} {
		if _, err := parseTiers(bad); err == nil {
			t.Errorf("parseTiers(%q) accepted", bad)
		}
	}
}
