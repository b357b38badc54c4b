package main

import (
	"bytes"
	"reflect"
	"testing"

	"ultracomputer/internal/trace"
)

// TestReplicaMatchesTraceRun: the traced replica must reproduce
// trace.Run's Result exactly — served, combines, RT quantiles, the queue
// histogram — on both net workloads at two seeds, traced and untraced.
func TestReplicaMatchesTraceRun(t *testing.T) {
	for _, s := range []netSpec{netHot, netLight} {
		for _, seed := range []uint64{1, 2} {
			w := s.workload(seed, 0)
			warmup, measure := s.warmup/2, s.measure/5
			want := trace.Run(s.cfg, w, warmup, measure)
			if want.Served == 0 || want.QueueLen.N() == 0 {
				t.Fatalf("%s seed %d: degenerate reference %v", s.name, seed, want)
			}
			tr := NewTracer(100)
			var root int64
			for _, got := range []trace.Result{
				replica(s.cfg, w, warmup, measure, nil),
				replicaTimed(s.cfg, w, warmup, measure, tr, &root),
			} {
				if !bytes.Equal(resultBytes(got), resultBytes(want)) || !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d: replica %v, trace.Run %v", s.name, seed, got, want)
				}
			}
			if root <= 0 || tr.SelfSum() != root || tr.Open() != 0 {
				t.Errorf("%s seed %d: self times %d, root %d, %d open", s.name, seed, tr.SelfSum(), root, tr.Open())
			}
			if tr.Calls(spNetStep) != measure {
				t.Errorf("%s seed %d: %d network.step spans for %d measured cycles", s.name, seed, tr.Calls(spNetStep), measure)
			}
		}
	}
}

// TestSeedsChangeInputs: different run seeds and streams give different
// traffic; the same seed and stream, the same.
func TestSeedsChangeInputs(t *testing.T) {
	a, b, c := netHot.workload(1, 0), netHot.workload(2, 0), netHot.workload(1, 1)
	if a.Seed == b.Seed || a.HotWord == b.HotWord || a.Seed == c.Seed {
		t.Errorf("seeds 1 and 2, or streams 0 and 1, derive the same inputs: %+v / %+v / %+v", a, b, c)
	}
	if netHot.workload(1, 0) != a {
		t.Error("the same seed derived different inputs")
	}
}
