package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"ultracomputer/internal/serve"
)

// A serve-sessions job is one session lifecycle, driven closed-loop by
// one client through serve.API's handler: create+stage, dry-run, commit,
// a 1-cycle step (the machine is built here), sessSteps1 steps with info
// and /metrics reads between them, report, stage+commit a changed config
// and roll it back, a 1-cycle step (the rebuild), sessSteps2 steps with
// reads, report again, delete. The 1-cycle steps keep machine builds out
// of the per-cycle step timings.
const (
	sessSteps1  = 4
	sessSteps2  = 2
	sessCycles  = 400 // cycles per step request
	sessPasses  = 1 << 20
	sessMinCtl  = 1000 // control requests a run needs for its p99
	sessPerCtl  = 9 + 2*(sessSteps1+sessSteps2)
	sessReport1 = 1 + sessSteps1*sessCycles // machine cycle at the first report
	sessReport2 = 1 + sessSteps2*sessCycles // at the second (rebuilt after rollback)
)

// ctlRoutes are the control requests with their own p50 metric; every
// non-step request counts toward ctl_ms_p50/p99.
var ctlRoutes = []string{"create", "dry_run", "commit", "rollback", "info", "metrics", "report", "delete"}

// sessionConfigs derives the session's config and the changed config it
// stages, commits and rolls back from the run seed: a 16-PE machine
// running the generated cache kernel with enough passes never to halt.
func sessionConfigs(seed uint64) (orig, changed serve.Config) {
	k := genKernel(subSeed(seed, "session"), sessPasses)
	orig = serve.Config{
		Name: "perfbench", K: 2, Stages: 4,
		Cache:   &serve.CacheConfig{Sets: kernelCache.Sets, Ways: kernelCache.Ways, BlockWords: kernelCache.BlockWords},
		Program: k.src,
	}
	changed = orig
	changed.NoCombining = true
	return orig, changed
}

// sessionReference builds the session config standalone and runs it to
// each report point, returning the Report JSON the session must serve.
func sessionReference(cfg serve.Config) (rep1, rep2 []byte, err error) {
	m, _, eng, err := cfg.Build()
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	m.Run(sessReport2)
	if rep2, err = m.Report().JSON(); err != nil {
		return nil, nil, err
	}
	m.Run(sessReport1)
	if rep1, err = m.Report().JSON(); err != nil {
		return nil, nil, err
	}
	return rep1, rep2, nil
}

// client drives one service through its handler and keeps the timings.
type client struct {
	b   *bench
	svc *serve.Service
	h   http.Handler
	tr  *Tracer // nil for untraced sessions

	ctlNs               map[string][]float64 // per route
	allCtl              []float64
	stepNs              int64 // handler step requests after the first
	stepCyc             int64
	directNs, directCyc int64
	failedReq           int64
	lastNs              int64 // the latest request's latency
}

// do sends one request and returns its body; a non-2xx status counts as
// a failed operation.
func (c *client) do(route, method, url string, body []byte) []byte {
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	if c.tr != nil {
		c.tr.Begin(c.tr.Name("serve." + route))
	}
	t0 := now()
	c.h.ServeHTTP(rec, req)
	ns := now() - t0
	if c.tr != nil {
		c.tr.End()
	}
	c.b.attempted++
	if rec.Code < 200 || rec.Code > 299 {
		c.failedReq++
		c.b.fail("%s %s: HTTP %d: %s", method, url, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	c.lastNs = ns
	if route != "step" {
		c.ctlNs[route] = append(c.ctlNs[route], float64(ns))
		c.allCtl = append(c.allCtl, float64(ns))
	}
	return rec.Body.Bytes()
}

// lifecycle runs one session and returns its set-up time (create, commit
// and the first 1-cycle step) and the cycles it stepped. With a tracer,
// odd-numbered steps bypass the handler and call Session.StepCycles.
func (c *client) lifecycle(orig, changed []byte, rep1, rep2 []byte) (setupNs, cycles int64) {
	var created struct {
		ID string `json:"id"`
	}
	t0 := now()
	body := c.do("create", "POST", "/sessions", orig)
	setupNs += now() - t0
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		c.b.fail("create: no session id in %q", body)
		return
	}
	base := "/sessions/" + created.ID
	c.do("dry_run", "POST", base+"/config/dry-run?rho=0.1", nil)
	t0 = now()
	c.do("commit", "POST", base+"/config/commit?comment=perfbench", nil)
	c.step(base, created.ID, 1, false)
	setupNs += now() - t0
	cycles++

	phase := func(steps int) {
		for j := 0; j < steps; j++ {
			c.step(base, created.ID, sessCycles, c.tr != nil && j%2 == 1)
			cycles += sessCycles
			c.do("info", "GET", base, nil)
			c.do("metrics", "GET", base+"/metrics", nil)
		}
	}
	phase(sessSteps1)
	got := c.do("report", "GET", base+"/report", nil)
	c.b.check(bytes.Equal(got, rep1), "session %s: report after %d cycles differs from a standalone Build+Run", created.ID, sessReport1)
	c.do("stage", "PUT", base+"/config/candidate", changed)
	c.do("commit", "POST", base+"/config/commit?comment=changed", nil)
	c.do("rollback", "POST", base+"/config/rollback?comment=back", nil)
	c.step(base, created.ID, 1, false)
	cycles++
	phase(sessSteps2)
	got = c.do("report", "GET", base+"/report", nil)
	c.b.check(bytes.Equal(got, rep2), "session %s: report after rollback and %d cycles differs from a standalone Build+Run", created.ID, sessReport2)
	c.do("delete", "DELETE", base, nil)
	return setupNs, cycles
}

// step advances the session n cycles, through the handler or directly.
func (c *client) step(base, id string, n int64, direct bool) {
	if !direct {
		c.do("step", "POST", fmt.Sprintf("%s/step?cycles=%d", base, n), nil)
		if n > 1 {
			c.stepNs += c.lastNs
			c.stepCyc += n
		}
		return
	}
	s, err := c.svc.Session(id)
	if err != nil {
		c.b.fail("session %s: %v", id, err)
		return
	}
	c.tr.Begin(c.tr.Name("serve.session_step"))
	t0 := now()
	ran, err := s.StepCycles(n)
	ns := now() - t0
	c.tr.End()
	c.b.check(err == nil && ran == n, "session %s: StepCycles(%d) ran %d: %v", id, n, ran, err)
	c.directNs += ns
	c.directCyc += n
}

// sessionBodies encodes the create request (name plus the config to
// stage) and the changed config's stage request.
func sessionBodies(orig, changed serve.Config) (create, stage []byte, err error) {
	create, err = json.Marshal(struct {
		Name   string       `json:"name"`
		Config serve.Config `json:"config"`
	}{"perfbench", orig})
	if err != nil {
		return nil, nil, err
	}
	stage, err = json.Marshal(changed)
	return create, stage, err
}

// newClient starts an in-process service with one scheduler worker and
// a client for its handler; the caller drains the service.
func newClient(b *bench) *client {
	svc := serve.NewService(serve.Limits{Workers: 1})
	return &client{b: b, svc: svc, h: serve.NewAPI(svc).Handler(), ctlNs: map[string][]float64{}}
}

func runSessions(b *bench) {
	orig, changed := sessionConfigs(b.seed)
	rep1, rep2, err := sessionReference(orig.WithDefaults())
	if err != nil {
		b.fail("standalone build: %v", err)
		return
	}
	b.expect("report1", rep1)
	b.expect("report2", rep2)
	origJSON, changedJSON, err := sessionBodies(orig, changed)
	if err != nil {
		b.fail("encoding config: %v", err)
		return
	}
	c := newClient(b)
	defer c.svc.Drain()
	// Warm-up session: run, checked, not timed.
	c.lifecycle(origJSON, changedJSON, rep1, rep2)
	c.ctlNs, c.allCtl = map[string][]float64{}, nil
	c.stepNs, c.stepCyc = 0, 0

	minSessions := (sessMinCtl + sessPerCtl - 1) / sessPerCtl
	if !b.traced {
		var jobNs, setupNs []float64
		var cycles int64
		b.loop(minSessions, func(int) {
			t0 := now()
			s, cyc := c.lifecycle(origJSON, changedJSON, rep1, rep2)
			jobNs = append(jobNs, float64(now()-t0))
			setupNs = append(setupNs, float64(s))
			cycles = cyc
		})
		b.finishEndToEnd(float64(cycles), jobNs, setupNs)
		p50, p99 := c.ctl()
		b.note("  %-34s %14.6g ms\n  %-34s %14.6g ms (%d control requests)", "ctl_ms_p50", p50, "ctl_ms_p99", p99, len(c.allCtl))
		return
	}

	tr := NewTracer(spanKeep)
	root := tr.Name("serve.session")
	var rt runtimeAcc
	var plainNs, tracedNs []float64
	var tracedCycles int64
	b.loop(2*minSessions, func(i int) {
		if i%2 == 0 {
			before := readMem()
			t0 := now()
			_, cyc := c.lifecycle(origJSON, changedJSON, rep1, rep2)
			plainNs = append(plainNs, float64(now()-t0))
			rt.add(readMem().since(before), cyc)
			return
		}
		self0 := tr.SelfSum()
		c.tr = tr
		tr.BeginAt(root, now())
		_, cyc := c.lifecycle(origJSON, changedJSON, rep1, rep2)
		rootNs := tr.EndAt(now())
		c.tr = nil
		b.check(tr.Open() == 0 && tr.SelfSum()-self0 == rootNs,
			"serve-sessions: span self times sum to %d ns, traced session took %d ns", tr.SelfSum()-self0, rootNs)
		tracedNs = append(tracedNs, float64(rootNs))
		tracedCycles += cyc
	})
	for _, r := range ctlRoutes {
		b.set("serve."+r+"_ms_p50", median(c.ctlNs[r])/1e6)
	}
	p50, p99 := c.ctl()
	b.set("serve.ctl_ms_p50", p50)
	b.set("serve.ctl_ms_p99", p99)
	b.set("serve.step_ns_per_cycle", ratio(float64(c.stepNs), float64(c.stepCyc)))
	b.set("serve.session_step_ns_per_cycle", ratio(float64(c.directNs), float64(c.directCyc)))
	b.set("serve.failed_requests", float64(c.failedReq))
	b.set("trace.driver_ns_per_cycle", ratio(float64(tr.Self("serve.session")), float64(tracedCycles)))
	b.set("bench.trace_overhead_frac", median(tracedNs)/median(plainNs))
	rt.report(b)
	b.layerTable(tr, float64(tracedCycles))
	b.writeSpans(tr)
}

// ctl returns the control-request latency p50 and p99 in ms; too few
// requests for a p99 with 10 samples beyond it fail the run.
func (c *client) ctl() (p50, p99 float64) {
	n := len(c.allCtl)
	c.b.check(tailOK(n, 0.99, 10), "serve-sessions: %d control requests, too few for a p99 with 10 samples beyond it", n)
	return median(c.allCtl) / 1e6, quantile(c.allCtl, 0.99) / 1e6
}
