package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ultracomputer/internal/network"
	"ultracomputer/internal/obs/prof"
)

// goldenFixture is one machine configuration whose complete observable
// output is pinned by digest.
type goldenFixture struct {
	name string
	mk   func() (*Machine, func(*Machine) string)
}

// goldenFixtures covers every traffic class and network shape the
// determinism contract must hold for: combining and not, k=2 and k=4,
// two network copies, the ideal paracomputer, and three shipped guest
// programs.
func goldenFixtures(t *testing.T) []goldenFixture {
	return []goldenFixture{
		{"k2-s4-combining", mixedSPMD(Config{
			Net: network.Config{K: 2, Stages: 4, Combining: true}, Hashing: true,
		}, 16)},
		{"k4-s2-combining", mixedSPMD(Config{
			Net: network.Config{K: 4, Stages: 2, Combining: true}, Hashing: true,
		}, 16)},
		{"k2-s3-nocombining", mixedSPMD(Config{
			Net: network.Config{K: 2, Stages: 3},
		}, 8)},
		{"k2-s3-copies2", mixedSPMD(Config{
			Net: network.Config{K: 2, Stages: 3, Copies: 2, Combining: true},
		}, 8)},
		{"ideal-memory", mixedSPMD(Config{
			Net: network.Config{K: 2, Stages: 3, Combining: true}, IdealMemory: true,
		}, 8)},
		{"guest-queue", guestASM(t, Config{
			Net: network.Config{K: 2, Stages: 3, Combining: true}, Hashing: true, PEs: 8,
		}, "queue.s")},
		{"guest-barrier", guestASM(t, Config{
			Net: network.Config{K: 2, Stages: 3, Combining: true}, Hashing: true, PEs: 8,
		}, "barrier.s")},
		{"guest-rw", guestASM(t, Config{
			Net: network.Config{K: 2, Stages: 3, Combining: true}, Hashing: true, PEs: 8,
		}, "rw.s")},
	}
}

// goldenDigests holds the sha256 of every artifact of every fixture:
// Chrome trace, metrics JSONL, JSON report, request-tracer spans and
// flight recorder, and final memory/register state. They were recorded
// from the serial step path before the network was reduced to one step
// order, so any change to event order, queueing, combining or
// statistics shows up here as a digest mismatch.
var goldenDigests = map[string][6]string{
	// fixture: trace, metrics, report, spans, flight, state
	"k2-s4-combining":   {"cae34ac89a60e9c4f182226138dcdb327f30ac58b2b11180c88de764aa1b19fe", "bb6276261eedc00ee5238291100de61d15932a5217dfb65a3c9d63e15d0b49ce", "2342d1872fb92070602515836a8a994d9c62d9897e9a3a0c20d3b64bc70bf9c6", "3725f5983b738d2d0a9d23c0bafe570ff14cc913d5422b3129742429a2103359", "3725f5983b738d2d0a9d23c0bafe570ff14cc913d5422b3129742429a2103359", "ec28f01112b6a4bc6cc42dd4fb02338e7ddb3590dd4e9c29f73d0fcef5f5dfe3"},
	"k4-s2-combining":   {"c281b60a688e745b814f0c68f082a2906a2ac3ad2bc035e837dbfa3be0e50b46", "726e2e2112cac242a3acecca87c5eed8a194c40c73afb470ac25bf6820c4b43e", "701b11fc6b81f88d1f46b0f3dbee546686ccfbe199f5e6cfbff077f3386f9842", "a0e5423a30113c9df0d2c973972c3e33ae8b58c8bac35605ef7d0335854ee117", "a0e5423a30113c9df0d2c973972c3e33ae8b58c8bac35605ef7d0335854ee117", "a8d151b124d494d189753a91ff4a1a9ad4c261ff5984f449bf4441fe063de27f"},
	"k2-s3-nocombining": {"3a4082f70adab8a722bddb8aa583c86f6c0bc81058b3e4fee3bf4b2071682ef1", "e24ff30146ff99ca5d5a9653dbf02e732641a862d43c76184eb763e89e6abacb", "66c5a91e76fe5ebc52c69a27cf01bb806ff0cf143877ad56ab9a5c7048e2fbdf", "8367b36d3d71d005e956d64e1540a173b4e1f51c762de158b08534cbc68b402c", "8367b36d3d71d005e956d64e1540a173b4e1f51c762de158b08534cbc68b402c", "8ff6a149fee6ab04e6ecb06b03f65b7c975d06d5536ffa45b3c80f67e3f169bb"},
	"k2-s3-copies2":     {"54770e72775008840c68390f3709498bae2a2439673c5929debdf88226e9fea8", "a8817a28ecfd99412a90b24508b4eae17901032f4c80302dc18dc32d7b760414", "f9194b9fbec33d9bda7e4e68758dd1188f4896c2b60bae51a41d31ab8a849ce5", "3df584fe0e6a59635bdb77c0b5af4821ac20eff2f73ca6f23810d56d278f5fd3", "3df584fe0e6a59635bdb77c0b5af4821ac20eff2f73ca6f23810d56d278f5fd3", "a9bcf056be87079f24919b5f9118cc4a37d2209eba7abb2651f9df82b31d5ebd"},
	"ideal-memory":      {"6e7252fe61853f24352809244066055f3701526029af1aa53197244aeb65ea20", "e4ab168dcbda52c2ebcd87ab2da6d4fc634b7f5cdd80e1f213f016c9a0de74e0", "207dfbe4fb9d712f80435f03a510d668c1fdab636189f2d58e0e90c54fcf37c3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f8293f6cc4a6b9f85c414145f9895ceb24cc9dcde01b276c5855eefc517266c5"},
	"guest-queue":       {"ede2e8ae24ecc9eb52042940c5d06e8e162e84da953e6c8694b1c367065119a2", "ca8efbd7fe20656ef8cc856c708cb8e0041afb8fe7cd0e57972e43b4e3746952", "eb3f30f8792c6a26440e1822fc63583e49ed0fb886ab1a623d5b7645ec23477b", "407be684c43114ef769e1b13d8bfd9891b8f444e0488cacb3b13b0fcc00bb26f", "407be684c43114ef769e1b13d8bfd9891b8f444e0488cacb3b13b0fcc00bb26f", "1adcd3df0add2f8b09f508ab41b6c436ecc5c6a4d0f1ba0b91663545e2540b56"},
	"guest-barrier":     {"7988620b2e0418f7f25b2fe080f39e7f827b5dfc65338093a009c4502a3e5278", "f704035502b05ed90f88a7e04cad0e43b2c77111e6a51b6caf55b2627136b880", "3f4b6eab9ce1ea6ef185cd70ed84a4dd5e4036c5e29fe39ea18d90c93aeeb446", "17503e894a933c90b1b4c09aee2a8fab05d85a8cedf0391b6f317ac9489ce654", "17503e894a933c90b1b4c09aee2a8fab05d85a8cedf0391b6f317ac9489ce654", "6a6ec875ef96f4ccd9987b054e2424ead944d8688ec1d1e73d42afc8a411521e"},
	"guest-rw":          {"8707c9cb61830a152915502ae1561ba4a6e0560f993f007907c0fa980325deaa", "a5b88d0aaf32d6df888dc109ee20345a2207a63ab5b346b1941d67e3d9fe3b6c", "1bc9e4198fac100f3c03a2efef6dfc66658072776e2ce5a1e37bdf29b227ec6b", "a0ca2656bd8d924367fc5944f2e11832b6c03b09e5847870d217f61a76982dbe", "a0ca2656bd8d924367fc5944f2e11832b6c03b09e5847870d217f61a76982dbe", "3ab1c209554f08c09e8325cae8dbb65e56fe83a3c7a10cae49590bcc17539915"},
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func (a artifact) digests() [6]string {
	return [6]string{digest(a.trace), digest(a.metrics), digest(a.report),
		digest(a.spans), digest(a.flight), digest(a.state)}
}

var artifactKinds = [6]string{"trace", "metrics", "report", "spans", "flight", "state"}

// TestGoldenDigests runs every fixture with the full observability
// stack attached and compares each artifact's digest to the recorded
// one: same-seed output is byte-identical across changes to the step
// machinery, not just across two runs of one build.
func TestGoldenDigests(t *testing.T) {
	for _, fx := range goldenFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			got, want := runArtifact(t, fx.mk, nil).digests(), goldenDigests[fx.name]
			for i, kind := range artifactKinds {
				if got[i] != want[i] {
					t.Errorf("%s digest %s, want %s", kind, got[i], want[i])
				}
			}
			if got != want {
				t.Logf("recorded: %q: {%q, %q, %q, %q, %q, %q},", fx.name,
					got[0], got[1], got[2], got[3], got[4], got[5])
			}
		})
	}
}

// profGoldenDigests pins the guest profiler's two export formats for
// queue.s on 8 PEs: the gzipped pprof protobuf and the JSONL dump.
var profGoldenDigests = [2]string{
	"0180a8a9bed59b516dcccd45e3f04381a32a47b3c36d333b4096a0172644edac",
	"4814ab8ff88b60fd15884df81be06e574f069ae42cb83d29f815e42b11e8ab20",
}

func profDigests(t *testing.T, p *prof.Profiler) [2]string {
	t.Helper()
	pb, err := p.PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := p.WriteJSONL(&js); err != nil {
		t.Fatal(err)
	}
	return [2]string{digest(pb), digest(js.Bytes())}
}

func TestProfGoldenDigests(t *testing.T) {
	_, p, _ := profQueueRun(t, nil)
	got := profDigests(t, p)
	for i, kind := range []string{"pprof", "jsonl"} {
		if got[i] != profGoldenDigests[i] {
			t.Errorf("%s digest %s, want %s", kind, got[i], profGoldenDigests[i])
		}
	}
}
