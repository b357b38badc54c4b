package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/pe"
)

// artifact captures every observable output of a run: the Chrome trace
// bytes, the sampled metrics JSONL bytes, the JSON report, the request
// tracer's span and flight-recorder JSONL, and final shared memory /
// register state.
type artifact struct {
	trace   []byte
	metrics []byte
	report  []byte
	spans   []byte
	flight  []byte
	state   []byte
}

// runArtifact executes the machine mk builds on eng (nil = the default)
// with the full observability stack attached and returns the run's
// complete output.
func runArtifact(t *testing.T, mk func() (*Machine, func(m *Machine) string), eng engine.Engine) artifact {
	t.Helper()
	m, finalState := mk()
	if eng != nil {
		m.SetEngine(eng)
	}
	rec := obs.NewRecorder(1 << 20)
	m.SetProbe(rec)
	sampler := obs.NewSampler(16)
	m.SetSampler(sampler)
	// Sample at 0.6 so both branches of every hop-record site run (some
	// requests traced, some not) and mid-flight adoption triggers when a
	// traced request combines with an untraced one.
	tr := reqtrace.New(reqtrace.Config{Rate: 0.6, Seed: 11, Ring: 1 << 14})
	m.SetTracer(tr)
	m.MustRun(5_000_000)

	var a artifact
	var tb bytes.Buffer
	if err := obs.WriteChromeTrace(&tb, rec.Events()); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	a.trace = tb.Bytes()
	var mb bytes.Buffer
	if err := sampler.WriteJSONL(&mb); err != nil {
		t.Fatalf("metrics export: %v", err)
	}
	a.metrics = mb.Bytes()
	rep, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatalf("report marshal: %v", err)
	}
	a.report = rep
	var sb, fb bytes.Buffer
	if err := tr.WriteSpansJSONL(&sb); err != nil {
		t.Fatalf("span export: %v", err)
	}
	a.spans = sb.Bytes()
	if err := tr.WriteFlightJSONL(&fb); err != nil {
		t.Fatalf("flight export: %v", err)
	}
	a.flight = fb.Bytes()
	a.state = []byte(finalState(m))
	return a
}

// mixedSPMD is a guest exercising every traffic class: hot-spot
// fetch-and-adds (combining), scattered loads and stores, asynchronous
// requests and fences.
func mixedSPMD(cfg Config, pes int) func() (*Machine, func(*Machine) string) {
	return func() (*Machine, func(*Machine) string) {
		m := SPMD(cfg, pes, func(ctx *pe.Ctx) {
			me := int64(ctx.PE())
			for i := int64(0); i < 24; i++ {
				ctx.FetchAdd(7, 1) // hot word
				ctx.Store(100+me*8+i%4, me*1000+i)
				h := ctx.LoadAsync(100 + ((me*3+i)%int64(ctx.NumPE()))*8)
				ctx.Compute(int(i % 3))
				ctx.FetchAdd(9+me%4, h.Wait())
				if i%8 == 7 {
					ctx.Fence()
				}
			}
		})
		return m, func(m *Machine) string {
			var b bytes.Buffer
			for a := int64(0); a < 160; a++ {
				fmt.Fprintf(&b, "M[%d]=%d\n", a, m.ReadShared(a))
			}
			return b.String()
		}
	}
}

// guestASM loads one of the shipped assembly programs.
func guestASM(t *testing.T, cfg Config, file string) func() (*Machine, func(*Machine) string) {
	t.Helper()
	src, err := os.ReadFile("../../examples/asm/" + file)
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		t.Fatalf("assemble %s: %v", file, err)
	}
	return func() (*Machine, func(*Machine) string) {
		m, cores, err := Load(cfg, prog, LoadOptions{})
		if err != nil {
			t.Fatalf("load %s: %v", file, err)
		}
		return m, func(m *Machine) string {
			var b bytes.Buffer
			for a := int64(0); a < 64; a++ {
				fmt.Fprintf(&b, "M[%d]=%d\n", a, m.ReadShared(a))
			}
			for i, c := range cores {
				for r := 0; r < isa.NumRegs; r++ {
					fmt.Fprintf(&b, "pe%d.r%d=%d\n", i, r, c.Reg(r))
				}
			}
			return b.String()
		}
	}
}

// chunkEngine runs each phase as in-order calls over at most size
// units — the way an engine that observes phases (times or counts
// them) may split one.
type chunkEngine struct{ size int }

func (e chunkEngine) Run(n int, fn func(lo, hi, worker int)) {
	for lo := 0; lo < n; lo += e.size {
		fn(lo, min(lo+e.size, n), 0)
	}
}

// TestEngineEquivalence checks the engine seam: the same machine run on
// engines that split every phase into chunks (including sizes that
// divide the unit counts unevenly) produces exactly the golden bytes of
// the default serial engine — trace, metrics, report, spans, flight
// recorder and final architectural state.
func TestEngineEquivalence(t *testing.T) {
	for _, fx := range goldenFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			want := goldenDigests[fx.name]
			for _, size := range []int{1, 3, 8} {
				if got := runArtifact(t, fx.mk, chunkEngine{size}).digests(); got != want {
					t.Errorf("chunk=%d: artifact digests %q, want %q", size, got, want)
				}
			}
		})
	}
}
