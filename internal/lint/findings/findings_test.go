package findings

import (
	"bytes"
	"path/filepath"
	"testing"
)

// scrambled returns the same finding set twice, in two different
// insertion orders, without IDs.
func scrambled() ([]Finding, []Finding) {
	a := []Finding{
		{Analyzer: "stagecheck", File: "internal/network/network.go", Line: 40, Col: 2, Message: "write to shared state", Chain: "a → b"},
		{Analyzer: "hotalloc", File: "internal/pe/pe.go", Line: 10, Col: 6, Message: "allocation in hot loop"},
		{Analyzer: "hotalloc", File: "internal/pe/pe.go", Line: 90, Col: 6, Message: "allocation in hot loop"},
		{Analyzer: "guest", File: "prog.s", Message: "racy store"},
	}
	b := []Finding{a[2], a[0], a[3], a[1]}
	return a, b
}

// TestAssignIDsDeterministic checks the -json contract: whatever order
// findings are gathered in, AssignIDs produces one canonical order and
// one set of IDs, so the serialized stream is byte-identical.
func TestAssignIDsDeterministic(t *testing.T) {
	a, b := scrambled()
	AssignIDs(a)
	AssignIDs(b)

	var bufA, bufB bytes.Buffer
	if err := WriteJSON(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("same findings, different JSON:\n%s\nvs\n%s", bufA.Bytes(), bufB.Bytes())
	}

	// Canonical order: analyzer, then file, then line.
	wantOrder := []string{"guest", "hotalloc", "hotalloc", "stagecheck"}
	for i, f := range a {
		if f.Analyzer != wantOrder[i] {
			t.Fatalf("position %d: analyzer %s, want %s (order %v)", i, f.Analyzer, wantOrder[i], a)
		}
	}
}

// TestIDsAreLineBlind checks identity survives code motion: moving a
// finding to another line keeps its ID, while editing the message (or
// being a second occurrence of the same text) changes it.
func TestIDsAreLineBlind(t *testing.T) {
	orig := []Finding{{Analyzer: "hotalloc", File: "f.go", Line: 10, Message: "allocation in hot loop"}}
	moved := []Finding{{Analyzer: "hotalloc", File: "f.go", Line: 99, Col: 3, Message: "allocation in hot loop"}}
	edited := []Finding{{Analyzer: "hotalloc", File: "f.go", Line: 10, Message: "allocation in cold loop"}}
	AssignIDs(orig)
	AssignIDs(moved)
	AssignIDs(edited)

	if orig[0].ID != moved[0].ID {
		t.Errorf("moving a finding changed its ID: %s vs %s", orig[0].ID, moved[0].ID)
	}
	if orig[0].ID == edited[0].ID {
		t.Errorf("editing the message kept the ID %s", orig[0].ID)
	}

	// Two textually identical findings in one file are distinct by
	// occurrence index, in canonical (line) order.
	pair := []Finding{
		{Analyzer: "hotalloc", File: "f.go", Line: 30, Message: "allocation in hot loop"},
		{Analyzer: "hotalloc", File: "f.go", Line: 10, Message: "allocation in hot loop"},
	}
	AssignIDs(pair)
	if pair[0].ID == pair[1].ID {
		t.Errorf("repeated findings share ID %s", pair[0].ID)
	}
	if pair[0].Line != 10 {
		t.Errorf("canonical order not by line: %v", pair)
	}
	// The first occurrence keys identically to the lone finding above.
	if pair[0].ID != orig[0].ID {
		t.Errorf("first occurrence ID %s differs from lone finding ID %s", pair[0].ID, orig[0].ID)
	}
}

// TestBaselineRoundTripAndDiff checks the accept-the-backlog mechanism:
// saved findings come back as an ID set, Diff filters exactly them, and
// a missing baseline file means everything is new.
func TestBaselineRoundTripAndDiff(t *testing.T) {
	a, _ := scrambled()
	AssignIDs(a)

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := SaveBaseline(path, a[:2]); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh := Diff(a, base)
	if len(fresh) != 2 {
		t.Fatalf("Diff kept %d findings, want 2: %v", len(fresh), fresh)
	}
	for _, f := range fresh {
		if base[f.ID] {
			t.Errorf("baselined finding %s survived Diff", f.ID)
		}
	}

	missing, err := LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing baseline should not error: %v", err)
	}
	if got := Diff(a, missing); len(got) != len(a) {
		t.Errorf("empty baseline: Diff kept %d of %d", len(got), len(a))
	}
}
