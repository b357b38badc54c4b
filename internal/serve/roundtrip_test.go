package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
)

// TestFlagsConfigFileRunEquivalence is the `ultrasim -config` round
// trip: a flag-style machine description lifted into the shared config
// object, serialized to a JSON file, loaded back, and run — against the
// same machine built directly from the flags. The reports must be
// byte-identical: one config format everywhere, no drift through the
// file.
func TestFlagsConfigFileRunEquivalence(t *testing.T) {
	program := validConfig().Program

	// The "flags" path: what ultrasim builds from -k 2 -stages 4 -pes 8.
	flagCfg := machine.Config{
		Net:     network.Config{K: 2, Stages: 4, Combining: true},
		Hashing: true,
		PEs:     8,
	}
	flagOpts := machine.LoadOptions{LocalWords: 4096}
	prog, err := isa.Assemble(program)
	if err != nil {
		t.Fatal(err)
	}
	mFlag, _, err := machine.Load(flagCfg, prog, flagOpts)
	if err != nil {
		t.Fatal(err)
	}
	mFlag.Run(1_000_000)
	want, err := mFlag.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}

	// flags → Config → JSON file → LoadConfigFile → Build → run.
	lifted := FromMachine(flagCfg, flagOpts, 1_000_000, program)
	b, err := json.MarshalIndent(lifted, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfigFile(path)
	if err != nil {
		t.Fatalf("lifted config did not load back: %v", err)
	}
	mFile, _, eng, err := loaded.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mFile.Run(loaded.WithDefaults().Limit)
	got, err := mFile.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("config-file run differs from flags run:\n%s\nvs\n%s", got, want)
	}
}
