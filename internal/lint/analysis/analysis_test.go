package analysis_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ultracomputer/internal/lint/analysis"
)

// loadCallgraph loads the testdata/src/callgraph fixture and builds a
// one-package program over it.
func loadCallgraph(t *testing.T) *analysis.Program {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "callgraph"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return analysis.BuildProgram([]*analysis.Package{pkg})
}

// node finds a program node by its stable name.
func node(t *testing.T, prog *analysis.Program, name string) *analysis.Node {
	t.Helper()
	for _, n := range prog.Nodes {
		if n.Name() == name {
			return n
		}
	}
	var names []string
	for _, n := range prog.Nodes {
		names = append(names, n.Name())
	}
	t.Fatalf("no node named %q; have %s", name, strings.Join(names, ", "))
	return nil
}

// edges collects the names of n's callees reached through edges of the
// given kind.
func edges(n *analysis.Node, kind analysis.EdgeKind) []string {
	var out []string
	for _, e := range n.Calls {
		if e.Kind == kind {
			out = append(out, e.Callee.Name())
		}
	}
	return out
}

// TestCallGraphInterfaceDispatch checks class-hierarchy resolution: a
// call through an interface gets one dynamic edge per concrete method
// whose receiver implements the interface — and none to same-named
// methods with the wrong signature.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := loadCallgraph(t)
	dispatch := node(t, prog, "callgraph.dispatch")

	got := edges(dispatch, analysis.EdgeDynamic)
	want := map[string]bool{
		"callgraph.(A).Go": true,
		"callgraph.(B).Go": true,
	}
	if len(got) != len(want) {
		t.Fatalf("dispatch dynamic edges = %v, want the method set %v", got, want)
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("dispatch has unexpected dynamic edge to %s", name)
		}
	}
	if len(edges(dispatch, analysis.EdgeStatic)) != 0 {
		t.Errorf("dispatch should have no static edges, got %v", edges(dispatch, analysis.EdgeStatic))
	}
}

// TestCallGraphClosures checks the containment edges: a function
// literal becomes its own node, named parent·funcN, linked from the
// enclosing function so reachability flows through it.
func TestCallGraphClosures(t *testing.T) {
	prog := loadCallgraph(t)
	run := node(t, prog, "callgraph.run")
	lit := node(t, prog, "callgraph.run·func1")

	if lit.Parent != run {
		t.Errorf("literal's Parent = %v, want callgraph.run", lit.Parent)
	}
	if got := edges(run, analysis.EdgeContains); len(got) != 1 || got[0] != "callgraph.run·func1" {
		t.Errorf("run contains edges = %v, want [callgraph.run·func1]", got)
	}
	if got := edges(run, analysis.EdgeStatic); len(got) != 1 || got[0] != "callgraph.dispatch" {
		t.Errorf("run static edges = %v, want [callgraph.dispatch]", got)
	}
	if got := edges(lit, analysis.EdgeStatic); len(got) != 1 || got[0] != "callgraph.helper" {
		t.Errorf("literal static edges = %v, want [callgraph.helper]", got)
	}
}

// TestReachableAndPathTo checks transitive reachability across all
// three edge kinds and the rendered shortest chain.
func TestReachableAndPathTo(t *testing.T) {
	prog := loadCallgraph(t)
	run := node(t, prog, "callgraph.run")

	seen := prog.Reachable([]*analysis.Node{run}, nil)
	for _, name := range []string{
		"callgraph.dispatch", "callgraph.(A).Go", "callgraph.(B).Go",
		"callgraph.run·func1", "callgraph.helper",
	} {
		if !seen[node(t, prog, name)] {
			t.Errorf("%s not reachable from run", name)
		}
	}

	helper := node(t, prog, "callgraph.helper")
	want := "callgraph.run → callgraph.run·func1 → callgraph.helper"
	if got := prog.PathTo([]*analysis.Node{run}, helper, nil); got != want {
		t.Errorf("PathTo(run, helper) = %q, want %q", got, want)
	}

	// A follow callback that refuses containment edges must cut the
	// literal (and helper behind it) out of the reachable set.
	noContains := func(_ *analysis.Node, e analysis.Edge) bool {
		return e.Kind != analysis.EdgeContains
	}
	pruned := prog.Reachable([]*analysis.Node{run}, noContains)
	if pruned[helper] {
		t.Errorf("helper reachable despite contains edges being pruned")
	}
	if !pruned[node(t, prog, "callgraph.(A).Go")] {
		t.Errorf("(A).Go should stay reachable when only contains edges are pruned")
	}
}

// TestFactStoreRoundTrip checks that a store survives Export/Import
// byte-exactly and that the program publishes a summary fact for every
// named function.
func TestFactStoreRoundTrip(t *testing.T) {
	prog := loadCallgraph(t)

	// The write-set pass publishes a SummaryFact per declared function;
	// (A).Go writes through its receiver.
	goA := node(t, prog, "callgraph.(A).Go")
	key := analysis.ObjKey(goA.Obj)
	if !strings.HasSuffix(key, ".(A).Go") {
		t.Fatalf("ObjKey((A).Go) = %q, want pkgpath.(A).Go", key)
	}
	var sf analysis.SummaryFact
	if ok, err := prog.Facts.Get(key, &sf); err != nil || !ok {
		t.Fatalf("Get(%s) = %v, %v; want a published summary", key, ok, err)
	}
	found := false
	for _, w := range sf.Writes {
		if w.Kind == "write" && w.Region == "receiver" {
			found = true
		}
	}
	if !found {
		t.Errorf("(A).Go summary %+v lacks a receiver write", sf.Writes)
	}

	// Round trip: Export, Import into a fresh store, re-Export; the two
	// serializations must match byte for byte and every key must
	// survive.
	data, err := prog.Facts.Export()
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	fresh := analysis.NewFactStore()
	if err := fresh.Import(data); err != nil {
		t.Fatalf("Import: %v", err)
	}
	again, err := fresh.Export()
	if err != nil {
		t.Fatalf("re-Export: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("Export → Import → Export is not byte-identical:\n%s\nvs\n%s", data, again)
	}
	if got, want := strings.Join(fresh.Keys(), "\n"), strings.Join(prog.Facts.Keys(), "\n"); got != want {
		t.Errorf("imported keys:\n%s\nwant:\n%s", got, want)
	}

	// Keys come back sorted regardless of insertion order.
	s := analysis.NewFactStore()
	for _, k := range []string{"zz.f", "aa.f", "mm.(T).m"} {
		if err := s.Set(k, analysis.SummaryFact{}); err != nil {
			t.Fatalf("Set(%s): %v", k, err)
		}
	}
	if got := s.Keys(); got[0] != "aa.f" || got[1] != "mm.(T).m" || got[2] != "zz.f" {
		t.Errorf("Keys() = %v, want sorted order", got)
	}
}

// TestPackageDirsSkipsNestedModules: ./... covers this module only — a
// subdirectory with its own go.mod is another module, as for the go
// command.
func TestPackageDirsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, body := range map[string]string{
		"go.mod":              "module m\n",
		"a/a.go":              "package a\n",
		"a/a_test.go":         "package a\n",
		"nested/go.mod":       "module n\n",
		"nested/n.go":         "package n\n",
		"nested/sub/s.go":     "package sub\n",
		"a/testdata/t.go":     "package t\n",
		".hidden/h.go":        "package h\n",
		"onlytests/x_test.go": "package x\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := analysis.PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(root, "a")}; !reflect.DeepEqual(dirs, want) {
		t.Fatalf("PackageDirs = %v, want %v", dirs, want)
	}
}
