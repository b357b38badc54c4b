package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
)

// goldenCases are the Figure 7 switch shapes and workload variants (hot
// spot, bursty, copies, mixed operations, no combining) whose complete
// output is pinned by digest.
var goldenCases = []struct {
	name string
	cfg  network.Config
	w    Workload
}{
	{"k2-uniform", network.Config{K: 2, Stages: 4, Combining: true},
		Workload{Rate: 0.2, Hash: true, Seed: 17}},
	{"k4-uniform", network.Config{K: 4, Stages: 2, Combining: true},
		Workload{Rate: 0.2, Hash: true, Seed: 17}},
	{"k2-copies2-hot", network.Config{K: 2, Stages: 3, Copies: 2, Combining: true},
		Workload{Rate: 0.25, HotFraction: 0.3, Seed: 5}},
	{"k2-bursty-mixedops", network.Config{K: 2, Stages: 4, Combining: true},
		Workload{Rate: 0.15, Burstiness: 16, LoadFrac: 0.4, StoreFrac: 0.3, Hash: true, Seed: 99}},
	{"k2-nocombining", network.Config{K: 2, Stages: 3},
		Workload{Rate: 0.1, Seed: 3}},
}

// goldenDigests holds, per case, the sha256 of the Result, the full
// probe event stream, the metrics JSONL, and the request tracer's span
// and flight-recorder JSONL. They were recorded from the serial step
// path before the network was reduced to one step order.
var goldenDigests = map[string][5]string{
	// case: result, events, metrics, spans, flight
	"k2-uniform":         {"0ca60dfe2d0f2ea36c73b1ae4aa287802fdd0b5e17a06efed4d4d5105187f056", "ec5df1aeb7f457149b1116c377d63187cb45c0d8b7f691117ec2466284cd22f0", "51173d9afc3ca8171d23a197608ac8567389ebe65fb0ba0e61498b2ebb17730b", "63f64b935f0bc582563ec68f243c4ee0626e41a8523722d3b17b17a6c85c7946", "63f64b935f0bc582563ec68f243c4ee0626e41a8523722d3b17b17a6c85c7946"},
	"k4-uniform":         {"c4b0905dc67efdf676a26137c7d51c5b24332975ad0c99fdee6e339a493e0b63", "f7b15b31ae631ca102f0c75da4ee2067ae6f4073d4a6c849b5217c29fb357297", "92cd2bde78a236f247faf41cf4a2830cb59618474636bf9456ad771fa496aa94", "f997b93150da5d32c98b644fb3fc71edda3349b2f5ab796edfbd95720e8fc253", "f997b93150da5d32c98b644fb3fc71edda3349b2f5ab796edfbd95720e8fc253"},
	"k2-copies2-hot":     {"c4f2e074e185f468a25401cd73c14186cc8baa3497ffeafd11ffbbea2396206f", "0b0c7cbf222e90d1bdbb52320f268be63a82383b36c8926ebad49fcd8d688b8e", "7688d061b142496febdee540c36c7cc6a5ce958ec28115dc5059a479499ed7fd", "a6bac83a5ca2ddfaa0c390abbcf7f39cd9fe7af99c14ba149a06a8186f7833a7", "a6bac83a5ca2ddfaa0c390abbcf7f39cd9fe7af99c14ba149a06a8186f7833a7"},
	"k2-bursty-mixedops": {"1698a01188f5c98766081eed86889965b78222c167eaf4d2ccee144e75ef27a6", "2b84be192b7fcd08e887ac1ed157f998acebe38af049396c34c7a7b7cfaff5d0", "1fa2d584c0e9b6e6a5a80f6ce7cd5b5a30dfbe7cdd9cbd14be225c332693d9b1", "a25527c274236d79c160bd5ca0a2de6ba4d815d68bed3993ab73d822712eb5ff", "a25527c274236d79c160bd5ca0a2de6ba4d815d68bed3993ab73d822712eb5ff"},
	"k2-nocombining":     {"9c0dedf5ec554c28eb116bea2c125aedb0fda4ad948961a5b1396f2a13504fb6", "0fdebd66285f2fe28a16f31511407d69969e03a7f3b1f7476cef41a7951cb4e4", "a8cc6ed5c7168bda2b5551c7da6b7cbdd2d44c904acd3b21407e517ba0016d46", "fe692030f45f995cc045c91ae62bf9ac35c8773581e888109dd620022949c615", "fe692030f45f995cc045c91ae62bf9ac35c8773581e888109dd620022949c615"},
}

var goldenKinds = [5]string{"result", "events", "metrics", "spans", "flight"}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// rawEvent drops obs.Event's String method so %+v prints every field,
// the network copy included.
type rawEvent obs.Event

// goldenArtifacts runs one case with the probe, sampler and request
// tracer attached (sampling at 0.6 exercises both the traced and the
// untraced branch of every hop site) and digests everything observable.
func goldenArtifacts(t *testing.T, cfg network.Config, w Workload) [5]string {
	t.Helper()
	rec := obs.NewRecorder(1 << 20)
	sampler := obs.NewSampler(32)
	w.Probe = rec
	w.Sampler = sampler
	tr := reqtrace.New(reqtrace.Config{Rate: 0.6, Seed: 11, Ring: 1 << 14})
	w.Tracer = tr
	res := Run(cfg, w, 200, 1200)
	var eb, mb, sb, fb bytes.Buffer
	for _, ev := range rec.Events() {
		fmt.Fprintf(&eb, "%+v\n", rawEvent(ev))
	}
	if err := sampler.WriteJSONL(&mb); err != nil {
		t.Fatalf("metrics export: %v", err)
	}
	if err := tr.WriteSpansJSONL(&sb); err != nil {
		t.Fatalf("span export: %v", err)
	}
	if err := tr.WriteFlightJSONL(&fb); err != nil {
		t.Fatalf("flight export: %v", err)
	}
	return [5]string{digest([]byte(resultKey(res))), digest(eb.Bytes()),
		digest(mb.Bytes()), digest(sb.Bytes()), digest(fb.Bytes())}
}

// TestRunGoldenDigests pins the synthetic-traffic runner's output byte
// for byte: any change to event order, queueing, combining or
// statistics shows up as a digest mismatch.
func TestRunGoldenDigests(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, want := goldenArtifacts(t, tc.cfg, tc.w), goldenDigests[tc.name]
			for i, kind := range goldenKinds {
				if got[i] != want[i] {
					t.Errorf("%s digest %s, want %s", kind, got[i], want[i])
				}
			}
			if got != want {
				t.Logf("recorded: %q: {%q, %q, %q, %q, %q},", tc.name,
					got[0], got[1], got[2], got[3], got[4])
			}
		})
	}
}

// resultKey renders every field of a Result into a comparable string
// (histograms and means included via their observable summaries).
func resultKey(r Result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s p50=%v p99=%v oneway={%v %v} rt={%v %v} perMM=%v",
		r.String(), r.RTP50, r.RTP99, r.OneWay.N(), r.OneWay.Value(),
		r.RoundTrip.N(), r.RoundTrip.Value(), r.PerModuleServed)
	if r.QueueLen != nil {
		fmt.Fprintf(&b, " qlen=%+v", *r.QueueLen)
	}
	return b.String()
}
