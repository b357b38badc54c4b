package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// expectations pins the simulated outputs of the shipped seed: one
// digest per output, grouped by workload. Runs at other seeds check
// their outputs against an independent path (trace.Run against the
// replica, a plain machine against the wrapped one, a standalone build
// against the session) and against the run's first job instead.
type expectations struct {
	path      string
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadExpected(path string) (*expectations, error) {
	e := &expectations{path: path, Workloads: map[string]map[string]string{}}
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

func (e *expectations) save() error {
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.path, append(raw, '\n'), 0o644)
}

// expect checks (or, with --write-expected, records) one output of the
// shipped seed against its pinned digest. Other seeds are not pinned.
func (b *bench) expect(key string, output []byte) {
	if b.seed != shippedSeed {
		return
	}
	got := digest(output)
	w := b.expected.Workloads[b.name]
	if b.record {
		if w == nil {
			w = map[string]string{}
			b.expected.Workloads[b.name] = w
		}
		w[key] = got
		return
	}
	want, ok := w[key]
	b.check(ok && want == got, "%s: output %s digest %s, expected.json pins %q", b.name, key, got, want)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:12])
}
