package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if xs[0] != 1000 {
		t.Error("quantile must not reorder its input")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {5000, true}, {0, false}} {
		if got := tailOK(c.n, 0.99, 10); got != c.want {
			t.Errorf("tailOK(%d, 0.99, 10) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestSelfTime checks the span arithmetic on a hand-timed tree:
//
//	job [0, 100)
//	  a [10, 40)
//	    b [15, 25)
//	  a [50, 60)
func TestSelfTime(t *testing.T) {
	tr := NewTracer(10)
	job, a, b := tr.Name("job"), tr.Name("a"), tr.Name("b")
	tr.BeginAt(job, 0)
	tr.BeginAt(a, 10)
	tr.BeginAt(b, 15)
	tr.EndAt(25)
	tr.EndAt(40)
	tr.BeginAt(a, 50)
	tr.EndAt(60)
	if got := tr.EndAt(100); got != 100 {
		t.Fatalf("root duration = %d, want 100", got)
	}
	for _, c := range []struct {
		name               string
		calls, total, self int64
	}{{"job", 1, 100, 60}, {"a", 2, 40, 30}, {"b", 1, 10, 10}, {"never", 0, 0, 0}} {
		if tr.Calls(c.name) != c.calls || tr.Total(c.name) != c.total || tr.Self(c.name) != c.self {
			t.Errorf("%s: calls/total/self = %d/%d/%d, want %d/%d/%d", c.name,
				tr.Calls(c.name), tr.Total(c.name), tr.Self(c.name), c.calls, c.total, c.self)
		}
	}
	if tr.SelfSum() != 100 || tr.Open() != 0 {
		t.Errorf("self times sum to %d with %d open, want 100 and 0", tr.SelfSum(), tr.Open())
	}
	// Spans are kept in the order they begin: job, a, b, a.
	sp := tr.spans
	if len(sp) != 4 || sp[0].Parent != 0 || sp[1].Parent != sp[0].ID ||
		sp[2].Parent != sp[1].ID || sp[3].Parent != sp[0].ID ||
		sp[0].End != 100 || sp[2].Start != 15 || sp[2].End != 25 {
		t.Errorf("kept spans wrong: %+v", sp)
	}
	// With room for two, the first two to begin are kept, parent first.
	small := NewTracer(2)
	x := small.Name("x")
	small.BeginAt(x, 0)
	small.BeginAt(x, 1)
	small.BeginAt(x, 2)
	small.EndAt(3)
	small.EndAt(4)
	small.EndAt(5)
	if len(small.spans) != 2 || small.spans[1].Parent != small.spans[0].ID || small.spans[0].End != 5 {
		t.Errorf("capped spans wrong: %+v", small.spans)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	tr.Begin(0)
	tr.End()
}

// TestMetricListsMatchBenchmarkJSON keeps the metric tables in main.go
// and BENCHMARK.json in step: same names, units and order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in main.go, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: main.go %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(spec.Work) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d runners", len(spec.Work), len(workloads))
	}
}
