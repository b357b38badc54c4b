package main

import (
	"bufio"
	"strings"
	"testing"
)

// TestWrongExpectationIsAFailedOperation: an output whose digest does
// not match the pinned one — or has none pinned — counts as failed, and
// the run's result says correct=false.
func TestWrongExpectationIsAFailedOperation(t *testing.T) {
	b := testBench("net-hot")
	b.seed = shippedSeed
	b.expected.Workloads["net-hot"] = map[string]string{"result": digest([]byte("right"))}
	b.expect("result", []byte("right"))
	if b.failed != 0 || b.attempted != 1 {
		t.Fatalf("matching output: %d failed of %d", b.failed, b.attempted)
	}
	b.expect("result", []byte("wrong"))
	b.expect("other", []byte("unpinned"))
	if b.failed != 2 || b.attempted != 3 {
		t.Fatalf("mismatches: %d failed of %d, want 2 of 3", b.failed, b.attempted)
	}
	// Other seeds are not pinned.
	b.seed = 2
	b.expect("result", []byte("wrong"))
	if b.failed != 2 {
		t.Errorf("seed 2 was checked against the shipped seed's digest")
	}
	var out strings.Builder
	b.out = bufio.NewWriter(&out)
	b.traced = true
	if code := b.emit(); code != 0 {
		t.Fatalf("emit exit code %d", code)
	}
	last := out.String()[strings.LastIndex(strings.TrimSpace(out.String()), "\n")+1:]
	if !strings.Contains(last, `"correct":false`) || !strings.Contains(last, `"failed":2`) {
		t.Errorf("result line %s", last)
	}
}

// TestSessionReportMismatchIsAFailedOperation drives one session whose
// expected report is wrong and one whose request fails.
func TestSessionReportMismatchIsAFailedOperation(t *testing.T) {
	b := testBench("serve-sessions")
	orig, changed := sessionConfigs(b.seed)
	rep1, rep2, err := sessionReference(orig.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(b)
	defer c.svc.Drain()
	origJSON, changedJSON, err := sessionBodies(orig, changed)
	if err != nil {
		t.Fatal(err)
	}
	c.lifecycle(origJSON, changedJSON, rep1, rep2)
	if b.failed != 0 || c.failedReq != 0 {
		t.Fatalf("clean session failed: %v", b.notes)
	}
	c.lifecycle(origJSON, changedJSON, rep1, []byte("not the report"))
	if b.failed != 1 {
		t.Fatalf("wrong report: %d failed, want 1 (%v)", b.failed, b.notes)
	}
	c.do("info", "GET", "/sessions/no-such-session", nil)
	if b.failed != 2 || c.failedReq != 1 {
		t.Errorf("404: %d failed, %d failed requests, want 2 and 1", b.failed, c.failedReq)
	}
}
