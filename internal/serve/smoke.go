package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// smokeProgram is the serve-smoke guest: every PE hammers one shared
// word with fetch-and-adds through the combining network — the paper's
// canonical workload — and halts after a fixed iteration count.
const smokeProgram = `
        li   r1, 100
        li   r2, 1
        li   r6, 2000
loop:   faa  r3, 0(r1), r2
        add  r4, r4, r3
        addi r5, r5, 1
        blt  r5, r6, loop
        halt
`

// smokeConfig is the shared config both smoke sessions run and the
// standalone machine is built from.
func smokeConfig() Config {
	return Config{
		Name: "serve-smoke", K: 2, Stages: 4, PEs: 8,
		Limit:   5_000_000,
		Program: smokeProgram,
	}
}

// Smoke is the CI end-to-end check behind `ultraserve -smoke` and
// `make serve-smoke`: it starts a real service on a loopback port,
// drives two concurrent sessions through the full API lifecycle
// (create+stage → dry-run → commit → start), waits for both to finish,
// and verifies each session's /report bytes are identical to a
// standalone in-process run of the same config — the session-isolation
// and determinism guarantee the service rests on.
func Smoke(out io.Writer) error {
	svc := NewService(Limits{})
	defer svc.Drain()
	hs, bound, err := NewAPI(svc).Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hs.Close()
	base := "http://" + bound
	fmt.Fprintf(out, "serve-smoke: service on %s\n", base)

	cfg := smokeConfig()
	body, err := json.Marshal(struct {
		Name   string  `json:"name"`
		Config *Config `json:"config"`
	}{"smoke", &cfg})
	if err != nil {
		return err
	}

	// Create two sessions, each with the config staged in the same call.
	var ids []string
	for i := 0; i < 2; i++ {
		var info SessionInfo
		if err := smokeDo(http.MethodPost, base+"/sessions", body, http.StatusCreated, &info); err != nil {
			return fmt.Errorf("create session: %w", err)
		}
		ids = append(ids, info.ID)
	}
	fmt.Fprintf(out, "serve-smoke: sessions %s\n", strings.Join(ids, ", "))

	for _, id := range ids {
		// Dry-run the candidate: the §4.1 prediction must come back
		// before any cycles run.
		var dr DryRunResult
		if err := smokeDo(http.MethodPost, base+"/sessions/"+id+"/config/dry-run?rho=0.1", nil, http.StatusOK, &dr); err != nil {
			return fmt.Errorf("dry-run %s: %w", id, err)
		}
		if !dr.OK || dr.PredictedRT <= 0 {
			return fmt.Errorf("dry-run %s: no prediction in %+v", id, dr)
		}
		var ce CommitEntry
		if err := smokeDo(http.MethodPost, base+"/sessions/"+id+"/config/commit?comment=smoke", nil, http.StatusOK, &ce); err != nil {
			return fmt.Errorf("commit %s: %w", id, err)
		}
		if err := smokeDo(http.MethodPost, base+"/sessions/"+id+"/start", nil, http.StatusOK, nil); err != nil {
			return fmt.Errorf("start %s: %w", id, err)
		}
	}
	fmt.Fprintf(out, "serve-smoke: both sessions running (dry-run predicted RT before start)\n")

	// Wait for both to run to completion under the shared scheduler.
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		for {
			var info SessionInfo
			if err := smokeDo(http.MethodGet, base+"/sessions/"+id, nil, http.StatusOK, &info); err != nil {
				return fmt.Errorf("poll %s: %w", id, err)
			}
			if info.State == StateDone {
				break
			}
			if info.State == StateFailed {
				return fmt.Errorf("session %s failed: %s", id, info.Error)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("session %s still %s at deadline", id, info.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The reference: the same config run standalone, in process — the
	// machine ultrasim would build from these parameters.
	m, _, _, err := cfg.Build()
	if err != nil {
		return fmt.Errorf("standalone build: %w", err)
	}
	m.Run(cfg.WithDefaults().Limit)
	want, err := m.Report().JSON()
	if err != nil {
		return err
	}

	for _, id := range ids {
		got, err := smokeRaw(base + "/sessions/" + id + "/report")
		if err != nil {
			return fmt.Errorf("report %s: %w", id, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("session %s report differs from standalone run (%d vs %d bytes)", id, len(got), len(want))
		}
	}
	fmt.Fprintf(out, "serve-smoke: OK — both session reports byte-identical to the standalone run (%d bytes)\n", len(want))
	return nil
}

// smokeDo performs one API call, checks the status, and decodes the
// JSON response into v (when v is non-nil).
func smokeDo(method, url string, body []byte, wantStatus int, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, strings.TrimSpace(string(b)))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}

// smokeRaw fetches a URL and returns the raw body bytes.
func smokeRaw(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}
