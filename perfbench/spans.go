package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors every clock reading: time.Since on a monotonic Time is a
// single nanotime read, the cheapest clock the standard library offers.
var epoch = time.Now()

// now is the host clock in nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// Span is one timed call from the benchmark's own code into a layer of
// the program. Times are nanoseconds since the process epoch; Parent is
// the ID of the enclosing span, 0 for a root.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer records nested spans and aggregates, per span name, the call
// count, the inclusive time and the self time (duration minus the part
// covered by child spans). Spans nest strictly: End closes the most
// recently begun open span. A nil *Tracer records nothing, so untraced
// code paths share the traced ones at the cost of one nil check.
//
// Aggregates cover every span; the spans themselves are kept in memory
// only for the first keep to begin (leaf calls such as one core tick run
// into the millions per run) and written out by WriteSpans when the run
// ends. A parent begins before its children, so every kept span's
// parent is kept too.
type Tracer struct {
	names []string
	ids   map[string]int
	calls []int64
	total []int64
	self  []int64

	stack  []openSpan
	nextID int64
	spans  []Span
	keep   int
}

type openSpan struct {
	name          int
	id, parent    int64
	start, childs int64
	slot          int // index in spans, or -1 when not kept
}

// NewTracer returns a tracer retaining at most keep spans.
func NewTracer(keep int) *Tracer {
	return &Tracer{ids: map[string]int{}, keep: keep}
}

// Name interns a span name, returning the id Begin takes.
func (t *Tracer) Name(name string) int {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := len(t.names)
	t.ids[name] = id
	t.names = append(t.names, name)
	t.calls = append(t.calls, 0)
	t.total = append(t.total, 0)
	t.self = append(t.self, 0)
	return id
}

// Begin opens a span named by an id from Name.
func (t *Tracer) Begin(name int) {
	if t != nil {
		t.BeginAt(name, now())
	}
}

// End closes the innermost open span.
func (t *Tracer) End() {
	if t != nil {
		t.EndAt(now())
	}
}

// BeginAt is Begin with an explicit clock reading.
func (t *Tracer) BeginAt(name int, at int64) {
	t.nextID++
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	slot := -1
	if len(t.spans) < t.keep {
		slot = len(t.spans)
		t.spans = append(t.spans, Span{ID: t.nextID, Parent: parent, Name: t.names[name], Start: at})
	}
	t.stack = append(t.stack, openSpan{name: name, id: t.nextID, parent: parent, start: at, slot: slot})
}

// EndAt is End with an explicit clock reading. It returns the span's
// duration.
func (t *Tracer) EndAt(at int64) int64 {
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := at - o.start
	t.calls[o.name]++
	t.total[o.name] += dur
	t.self[o.name] += dur - o.childs
	if n > 0 {
		t.stack[n-1].childs += dur
	}
	if o.slot >= 0 {
		t.spans[o.slot].End = at
	}
	return dur
}

// Open reports how many spans are still open.
func (t *Tracer) Open() int { return len(t.stack) }

// Calls, Total and Self report a name's aggregates (ns for times); zero
// for a name never recorded.
func (t *Tracer) Calls(name string) int64 { return t.agg(t.calls, name) }
func (t *Tracer) Total(name string) int64 { return t.agg(t.total, name) }
func (t *Tracer) Self(name string) int64  { return t.agg(t.self, name) }

func (t *Tracer) agg(v []int64, name string) int64 {
	if id, ok := t.ids[name]; ok {
		return v[id]
	}
	return 0
}

// SelfSum is the self time summed over every name.
func (t *Tracer) SelfSum() int64 {
	var s int64
	for _, v := range t.self {
		s += v
	}
	return s
}

// Names lists every interned span name.
func (t *Tracer) Names() []string { return append([]string(nil), t.names...) }

// WriteSpans writes the retained spans as JSONL.
func (t *Tracer) WriteSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerTable adds the traced run's per-name self times to the report,
// largest first, so the dominant layer is visible at a glance.
func (b *bench) layerTable(tr *Tracer, cycles float64) {
	names := tr.Names()
	sortBy(names, func(n string) float64 { return -float64(tr.Self(n)) })
	b.note("span self time per cycle (%0.f cycles traced):", cycles)
	for _, n := range names {
		b.note("  %-28s %12.0f ns  %10d calls", n, ratio(float64(tr.Self(n)), cycles), tr.Calls(n))
	}
}

// writeSpans writes the traced run's retained spans under .bench_build.
func (b *bench) writeSpans(tr *Tracer) {
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		b.note("spans not written: %v", err)
		return
	}
	if err := tr.WriteSpans(path); err != nil {
		b.note("spans not written: %v", err)
		return
	}
	b.note("spans written to %s", path)
}
