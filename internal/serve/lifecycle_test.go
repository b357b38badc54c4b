package serve

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

// snapshotDone reads the session's /snapshot.json, which must answer
// 200 with a final (done) State.
func snapshotDone(t *testing.T, sURL string) {
	t.Helper()
	var snap struct {
		Done bool `json:"done"`
	}
	call(t, http.MethodGet, sURL+"/snapshot.json", nil, http.StatusOK, &snap)
	if !snap.Done {
		t.Error("drain must leave a final State (snapshot.done)")
	}
}

// TestDrainBeforeFirstSlicePublishes pins drain's final publish in the
// two states a drain can catch before any cycle has run, each reached
// deterministically: no machine built yet (committed, never started),
// and a machine built whose feed has published nothing (the state a
// slice is in when the drain's interrupt stops it at cycle 0).
func TestDrainBeforeFirstSlicePublishes(t *testing.T) {
	t.Run("no machine", func(t *testing.T) {
		svc, base := testAPI(t, Limits{})
		var info SessionInfo
		call(t, http.MethodPost, base+"/sessions", map[string]any{"config": validConfig()}, http.StatusCreated, &info)
		sURL := base + "/sessions/" + info.ID
		call(t, http.MethodPost, sURL+"/config/commit", nil, http.StatusOK, nil)
		svc.Drain()
		snapshotDone(t, sURL)
	})
	t.Run("machine built, nothing published", func(t *testing.T) {
		svc, base := testAPI(t, Limits{})
		var info SessionInfo
		call(t, http.MethodPost, base+"/sessions", map[string]any{"config": validConfig()}, http.StatusCreated, &info)
		sURL := base + "/sessions/" + info.ID
		call(t, http.MethodPost, sURL+"/config/commit", nil, http.StatusOK, nil)
		s, err := svc.Session(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		s.execMu.Lock()
		err = s.ensureMachineLocked()
		s.execMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if s.lsrv.Current() != nil {
			t.Fatal("a freshly built machine must not have published yet")
		}
		svc.Drain()
		snapshotDone(t, sURL)
	})
}

// TestPauseStopsCycles checks that a 200 from /pause means the machine
// has stopped: over many start/pause rounds on two Ps, the published
// cycle count read right after the pause never moves afterwards.
// Sampling every cycle makes any step after the pause visible.
func TestPauseStopsCycles(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, base := testAPI(t, Limits{})
	cfg := validConfig()
	cfg.Program = spinProgram
	cfg.Limit = 100_000_000
	cfg.SampleEvery = 1
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", map[string]any{"config": cfg}, http.StatusCreated, &info)
	sURL := base + "/sessions/" + info.ID
	call(t, http.MethodPost, sURL+"/config/commit", nil, http.StatusOK, nil)

	var last int64
	for round := 0; round < 40; round++ {
		call(t, http.MethodPost, sURL+"/start", nil, http.StatusOK, nil)
		deadline := time.Now().Add(30 * time.Second)
		for info.Cycles <= last {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no progress past cycle %d", round, last)
			}
			call(t, http.MethodGet, sURL, nil, http.StatusOK, &info)
		}
		call(t, http.MethodPost, sURL+"/pause", nil, http.StatusOK, nil)
		var p1, p2 SessionInfo
		call(t, http.MethodGet, sURL, nil, http.StatusOK, &p1)
		time.Sleep(2 * time.Millisecond)
		call(t, http.MethodGet, sURL, nil, http.StatusOK, &p2)
		if p1.State != StatePaused || p2.Cycles != p1.Cycles {
			t.Fatalf("round %d: pause didn't stop the machine: %s, cycle %d then %d",
				round, p1.State, p1.Cycles, p2.Cycles)
		}
		last = p2.Cycles
	}
}

// TestEngineFieldsRejected: the config has no engine/workers fields
// (machines step serially), so the strict stage decoder answers 400.
func TestEngineFieldsRejected(t *testing.T) {
	_, base := testAPI(t, Limits{})
	var info SessionInfo
	call(t, http.MethodPost, base+"/sessions", nil, http.StatusCreated, &info)
	for field, v := range map[string]any{"engine": "parallel", "workers": 4} {
		body := map[string]any{"k": 2, "stages": 4, "program": "halt", field: v}
		call(t, http.MethodPut, base+"/sessions/"+info.ID+"/config/candidate", body, http.StatusBadRequest, nil)
	}
}
