package serve

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validConfig is a minimal config every test mutates from.
func validConfig() Config {
	return Config{
		K: 2, Stages: 4, PEs: 8,
		Limit: 1_000_000,
		Program: `
        li   r1, 100
        li   r2, 1
        li   r6, 200
loop:   faa  r3, 0(r1), r2
        addi r5, r5, 1
        blt  r5, r6, loop
        halt
`,
	}
}

// fieldsOf collects the field names from a validation error.
func fieldsOf(t *testing.T, err error) []string {
	t.Helper()
	var ve *ValidateError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidateError, got %T: %v", err, err)
	}
	var names []string
	for _, f := range ve.Fields {
		names = append(names, f.Field)
	}
	return names
}

func TestValidateTable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		fields []string // expected failing fields, in order
	}{
		{"ok", func(c *Config) {}, nil},
		{"bad k", func(c *Config) { c.K = 1 }, []string{"k"}},
		{"bad stages", func(c *Config) { c.Stages = 0 }, []string{"stages"}},
		{"too many ports", func(c *Config) { c.Stages = 40 }, []string{"stages"}},
		// The k^stages bound must hold after the final multiply too: a
		// huge radix with one stage once slipped through and let the
		// network build allocate multi-GiB port arrays.
		{"huge k one stage", func(c *Config) { c.K = 1 << 30; c.Stages = 1; c.PEs = 1 }, []string{"stages"}},
		{"overflowing k^stages", func(c *Config) { c.K = 1 << 31; c.Stages = 2; c.PEs = 1 }, []string{"stages"}},
		{"pes beyond ports", func(c *Config) { c.PEs = 17 }, []string{"pes"}},
		{"tiny queue", func(c *Config) { c.QueueCapacity = 2 }, []string{"queue_capacity"}},
		{"tiny pni queue", func(c *Config) { c.PNIQueueCapacity = 1 }, []string{"pni_queue_capacity"}},
		{"bad cache", func(c *Config) { c.Cache = &CacheConfig{Sets: 3, Ways: 1, BlockWords: 4} }, []string{"cache"}},
		{"empty program", func(c *Config) { c.Program = "  \n" }, []string{"program"}},
		{"unassemblable program", func(c *Config) { c.Program = "bogus r1, r2" }, []string{"program"}},
		{"several at once", func(c *Config) { c.K = 0; c.Program = "" }, []string{"k", "program"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.fields == nil {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			got := fieldsOf(t, err)
			if strings.Join(got, ",") != strings.Join(tc.fields, ",") {
				t.Errorf("failing fields = %v, want %v", got, tc.fields)
			}
		})
	}
}

// The k=0 case above also trips stages/pes rules: field errors
// accumulate rather than short-circuit, so a client fixes everything in
// one round trip.

func TestWithDefaultsMatchesUltrasimFlags(t *testing.T) {
	d := Config{K: 2, Stages: 4, Program: "halt"}.WithDefaults()
	if d.PEs != 16 || d.Copies != 1 || d.MMLatency != 2 || d.PECycle != 2 ||
		d.MaxOutstanding != 12 || d.LocalWords != 4096 ||
		d.Limit != 100_000_000 || d.SampleEvery != 64 {
		t.Errorf("defaults drifted from ultrasim's flag defaults: %+v", d)
	}
	mc := d.MachineConfig()
	if !mc.Net.Combining || !mc.Hashing {
		t.Error("combining/hashing must default on (inverted NoCombining/NoHashing)")
	}
}

func TestDryRunPredictsWithoutRunning(t *testing.T) {
	res := validConfig().DryRun(0.10)
	if !res.OK {
		t.Fatalf("dry-run rejected a valid config: %+v", res.FieldErrors)
	}
	if res.PredictedRT <= 0 || res.PredictedTransit <= 0 {
		t.Errorf("no §4.1 prediction: %+v", res)
	}
	if res.PredictedRT <= 2*res.PredictedTransit {
		t.Errorf("round trip %v must exceed two transits %v", res.PredictedRT, res.PredictedTransit)
	}
	if math.IsInf(res.PredictedRT, 0) || math.IsNaN(res.PredictedRT) {
		t.Errorf("prediction not finite: %v", res.PredictedRT)
	}
	if res.Capacity <= 0 || res.Saturated {
		t.Errorf("rho=0.10 on k2-d1 must be below saturation: %+v", res)
	}
}

func TestDryRunSaturation(t *testing.T) {
	// Offered load beyond d/m capacity: the closed form diverges, so the
	// result must flag saturation with zeroed (JSON-safe) predictions.
	res := validConfig().DryRun(0.95)
	if !res.OK || !res.Saturated {
		t.Fatalf("rho=0.95 must saturate k2-d1 (capacity %v): %+v", res.Capacity, res)
	}
	if res.PredictedRT != 0 || res.PredictedTransit != 0 {
		t.Errorf("saturated predictions must be zeroed, got rt=%v transit=%v", res.PredictedRT, res.PredictedTransit)
	}
}

func TestDryRunInvalidConfig(t *testing.T) {
	cfg := validConfig()
	cfg.K = 1
	res := cfg.DryRun(0)
	if res.OK || len(res.FieldErrors) == 0 {
		t.Fatalf("invalid config must dry-run to field errors: %+v", res)
	}
}

func TestLoadConfigFileRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(path, []byte(`{"k":2,"stages":4,"prgoram":"halt"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfigFile(path); err == nil || !strings.Contains(err.Error(), "prgoram") {
		t.Errorf("typo field must be rejected, got %v", err)
	}
}

func TestConfigMachineRoundTrip(t *testing.T) {
	// flags → machine.Config → serve.Config → machine.Config must be a
	// fixed point: the one-config-format-everywhere guarantee behind
	// `ultrasim -config`.
	orig := validConfig().WithDefaults()
	mc, opts := orig.MachineConfig(), orig.LoadOptions()
	back := FromMachine(mc, opts, orig.Limit, orig.Program).WithDefaults()
	if back.MachineConfig() != mc {
		t.Errorf("machine config round trip drifted:\n  orig %+v\n  back %+v", mc, back.MachineConfig())
	}
	if back.LoadOptions() != opts {
		t.Errorf("load options round trip drifted: %+v vs %+v", opts, back.LoadOptions())
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped config invalid: %v", err)
	}
}
