package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"

	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/sim"
	"ultracomputer/internal/trace"
)

// netSpec is one synthetic-traffic workload driven through trace.Run.
type netSpec struct {
	name            string
	cfg             network.Config
	load            trace.Workload // Seed and HotWord come from the run seed
	warmup, measure int64
	// setups is how many set-ups one set-up sample averages, so a sample
	// spans several milliseconds even where one set-up takes well under
	// one.
	setups int
	// inputs is how many independently seeded traffic streams one job
	// runs. A saturated network's cost per cycle differs by several
	// percent between streams; a job that averages several makes a run's
	// median depend less on its seed.
	inputs int
}

// netLight is the paper's 4096-port machine (k=4, 6 stages, d=1,
// combining, hashed) under light uniform fetch-and-add traffic: few
// lines are busy, so the fixed per-port cost of Stepper.Step dominates.
var netLight = netSpec{
	name:   "net-light",
	cfg:    network.Config{K: 4, Stages: 6, Copies: 1, Combining: true},
	load:   trace.Workload{Rate: 0.02, Hash: true},
	warmup: 30, measure: 150, setups: 2, inputs: 1,
}

// netHot is a 256-port network (k=2, 8 stages) at p=0.25 with a 5% hot
// spot and a 30/10/60 load/store/fetch-and-add mix: queues are full,
// combining and wait buffers are active and injections are refused, so
// per-message queue and combine cost dominates.
var netHot = netSpec{
	name:   "net-hot",
	cfg:    network.Config{K: 2, Stages: 8, Copies: 1, Combining: true},
	load:   trace.Workload{Rate: 0.25, HotFraction: 0.05, LoadFrac: 0.3, StoreFrac: 0.1, Hash: true},
	warmup: 200, measure: 800, setups: 8, inputs: 4,
}

// workload derives traffic stream k's inputs from the run seed.
func (s netSpec) workload(seed uint64, k int) trace.Workload {
	w := s.load
	w.Words = 1 << 20
	w.MMLatency = 2
	w.Seed = subSeed(seed, fmt.Sprintf("traffic/%d", k))
	if w.HotFraction > 0 {
		w.HotWord = int64(subSeed(seed, fmt.Sprintf("hotword/%d", k)) % uint64(w.Words))
	}
	return w
}

// timedRun times one traffic stream: trace.Run over warm-up plus
// measurement, less a trace.Run over the warm-up alone, so the time
// covers only the measured cycles (construction and warm-up cancel).
// Garbage is collected between the two, outside both timed windows, so
// every run starts from the same heap; mem is the runtime activity of
// the two windows.
func (s netSpec) timedRun(w trace.Workload) (ns float64, res trace.Result, mem memSnap) {
	m0 := readMem()
	t0 := now()
	trace.Run(s.cfg, w, s.warmup, 0)
	t1 := now()
	m1 := readMem()
	runtime.GC()
	m2 := readMem()
	t2 := now()
	res = trace.Run(s.cfg, w, s.warmup, s.measure)
	t3 := now()
	m3 := readMem()
	runtime.GC()
	return float64((t3 - t2) - (t1 - t0)), res, m1.since(m0).plus(m3.since(m2))
}

// setupNs is one set-up sample: the mean time of trace.Run for a single
// cycle — config to a network ready to step, including its first Step —
// each from a collected heap.
func (s netSpec) setupNs(w trace.Workload) float64 {
	var ns int64
	for k := 0; k < s.setups; k++ {
		runtime.GC()
		t0 := now()
		trace.Run(s.cfg, w, 0, 1)
		ns += now() - t0
	}
	return float64(ns) / float64(s.setups)
}

func runNet(b *bench, s netSpec) {
	ws := make([]trace.Workload, s.inputs)
	refs := make([]trace.Result, s.inputs)
	refBytes := make([][]byte, s.inputs)
	for k := range ws {
		// The first trace.Run of each stream is both warm-up and the
		// reference every later job and the replica must reproduce.
		ws[k] = s.workload(b.seed, k)
		refs[k] = trace.Run(s.cfg, ws[k], s.warmup, s.measure)
		refBytes[k] = resultBytes(refs[k])
		b.expect(fmt.Sprintf("result%d", k), refBytes[k])
		b.note("reference %d: %v", k, refs[k])
	}
	same := func(what string, k int, got trace.Result) {
		b.check(bytes.Equal(resultBytes(got), refBytes[k]) && reflect.DeepEqual(got, refs[k]),
			"%s: %s result for stream %d differs from trace.Run's: %v vs %v", s.name, what, k, got, refs[k])
	}
	// job is one untraced job: every stream once. Its time is the sum of
	// the streams' measured windows.
	job := func() (ns float64, mem memSnap) {
		for k, w := range ws {
			t, res, m := s.timedRun(w)
			same("job", k, res)
			ns += t
			mem = mem.plus(m)
		}
		return ns, mem
	}
	cyclesPerJob := s.measure * int64(s.inputs)
	if !b.traced {
		for k, w := range ws {
			same("replica", k, replica(s.cfg, w, s.warmup, s.measure, nil))
		}
		var jobNs, setupNs []float64
		b.loop(3, func(int) {
			ns, _ := job()
			jobNs = append(jobNs, ns)
			setupNs = append(setupNs, s.setupNs(ws[0]))
		})
		b.finishEndToEnd(float64(cyclesPerJob), jobNs, setupNs)
		return
	}

	tr := NewTracer(spanKeep)
	var rt runtimeAcc
	var plainNs, tracedNs []float64
	b.loop(4, func(i int) {
		if i%2 == 0 {
			ns, mem := job()
			rt.add(mem, (2*s.warmup+s.measure)*int64(s.inputs))
			plainNs = append(plainNs, ns)
			return
		}
		var jobNs int64
		for k, w := range ws {
			self0 := tr.SelfSum()
			var rootNs int64
			res := replicaTimed(s.cfg, w, s.warmup, s.measure, tr, &rootNs)
			same("traced replica", k, res)
			b.check(tr.Open() == 0 && tr.SelfSum()-self0 == rootNs,
				"%s: span self times sum to %d ns, traced job took %d ns (%d spans open)",
				s.name, tr.SelfSum()-self0, rootNs, tr.Open())
			jobNs += rootNs
		}
		tracedNs = append(tracedNs, float64(jobNs))
	})
	cycles := float64(cyclesPerJob) * float64(len(tracedNs))
	perCycle := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += tr.Self(n)
		}
		return ratio(float64(ns), cycles)
	}
	var offered, injected, served, combines int64
	var occSum, occN float64
	for _, r := range refs {
		offered += r.Offered
		injected += r.Injected
		served += r.Served
		combines += r.Combines
		occSum += r.QueueLen.Mean() * float64(r.QueueLen.N())
		occN += float64(r.QueueLen.N())
	}
	ports := float64(s.cfg.Ports())
	b.set("network.step_ns_per_cycle", perCycle(spNetStep))
	b.set("network.step_ns_per_port_cycle", perCycle(spNetStep)/ports)
	b.set("network.inject_ns_per_call", ratio(float64(tr.Self(spInject)), float64(tr.Calls(spInject))))
	b.set("network.collect_ns_per_cycle", perCycle(spCollect))
	b.set("network.mm_dequeue_ns_per_cycle", perCycle(spDequeue))
	b.set("network.inject_refused_frac", 1-ratio(float64(injected), float64(offered)))
	b.set("network.combines_per_kserved", 1000*ratio(float64(combines), float64(served)))
	b.set("network.queue_occ_mean", ratio(occSum, occN))
	b.set("memory.step_ns_per_cycle", perCycle(spMemPhase))
	b.set("memory.served_per_cycle", float64(served)/float64(cyclesPerJob))
	b.set("trace.driver_ns_per_cycle", perCycle(spNetJob, spGenerate, spCollectLoop))
	b.set("bench.trace_overhead_frac", median(tracedNs)/median(plainNs))
	rt.report(b)
	b.layerTable(tr, cycles)
	b.writeSpans(tr)
}

// Span names of the net-* replica. The trace.* spans are the driver's
// own loops; the others wrap single calls into a layer.
const (
	spNetJob      = "trace.job"
	spGenerate    = "trace.generate"
	spCollectLoop = "trace.collect_loop"
	spInject      = "network.inject"
	spNetStep     = "network.step"
	spSample      = "network.sample_queues"
	spMemPhase    = "memory.phase"
	spDequeue     = "network.mm_dequeue"
	spCollect     = "network.collect"
)

// spanKeep bounds the spans one traced run keeps for writing out.
const spanKeep = 200_000

// replica is replicaTimed without tracing.
func replica(cfg network.Config, w trace.Workload, warmup, measure int64, tr *Tracer) trace.Result {
	var root int64
	return replicaTimed(cfg, w, warmup, measure, tr, &root)
}

// replicaTimed re-implements trace.RunEngine's serial loop over the
// public network.Stepper and memory.Module calls, so each call can be
// timed from outside. It must stay result-identical to trace.Run (the
// benchmark checks every traced job, and the tests two seeds). Only the
// measurement window is traced, under one trace.job root span whose
// duration it stores in rootNs. Burstiness, probes, tracers and
// profilers are not replicated: no workload uses them.
func replicaTimed(cfg network.Config, w trace.Workload, warmup, measure int64, tr *Tracer, rootNs *int64) trace.Result {
	if w.Burstiness != 0 || w.Probe != nil || w.Sampler != nil || w.Tracer != nil || w.Profiler != nil {
		panic(fmt.Sprintf("replica: unsupported workload option in %+v", w))
	}
	var job, gen, inject, step, sample, mem, dequeue, collectLoop, collect int
	if tr != nil {
		job, gen, inject = tr.Name(spNetJob), tr.Name(spGenerate), tr.Name(spInject)
		step, sample, mem = tr.Name(spNetStep), tr.Name(spSample), tr.Name(spMemPhase)
		dequeue, collectLoop, collect = tr.Name(spDequeue), tr.Name(spCollectLoop), tr.Name(spCollect)
	}
	net := network.New(cfg)
	n := net.Ports()
	var hash memory.Hasher
	if w.Hash {
		hash = memory.MultHash{N: n}
	} else {
		hash = memory.Interleave{N: n}
	}
	bank := memory.NewBank(n, w.MMLatency, hash)
	st := network.NewStepper(net, nil)
	rng := sim.NewRand(w.Seed)
	peRng := make([]*sim.Rand, n)
	for i := range peRng {
		peRng[i] = rng.Fork()
	}

	var res trace.Result
	res.PerModuleServed = make([]int64, n)
	res.QueueLen = sim.NewHistogram(64)
	servedBefore := make([]int64, n)
	seq := make([]uint64, n)
	issueCycle := make([]map[uint64]int64, n)
	for pe := range issueCycle {
		issueCycle[pe] = make(map[uint64]int64)
	}
	var dequeued []msg.Request

	var t *Tracer // nil until the measurement window opens
	var start int64
	total := warmup + measure
	combinesBefore := int64(0)
	for cycle := int64(0); cycle < total; cycle++ {
		if cycle == warmup {
			combinesBefore = net.Stats().Combines.Value()
			for mm, mod := range bank.Modules {
				servedBefore[mm] = mod.Served.Value()
			}
			if tr != nil {
				t = tr
				start = now()
				t.BeginAt(job, start)
			}
		}
		measuring := cycle >= warmup

		t.Begin(gen)
		for pe := 0; pe < n; pe++ {
			r := peRng[pe]
			if !r.Bernoulli(w.Rate) {
				continue
			}
			if measuring {
				res.Offered++
			}
			var linear int64
			if w.HotFraction > 0 && r.Bernoulli(w.HotFraction) {
				linear = w.HotWord
			} else {
				linear = int64(r.Intn(int(w.Words)))
			}
			op := msg.FetchAdd
			switch u := r.Float64(); {
			case u < w.LoadFrac:
				op = msg.Load
			case u < w.LoadFrac+w.StoreFrac:
				op = msg.Store
			}
			seq[pe]++
			req := msg.Request{
				ID: uint64(pe)<<32 | seq[pe], PE: pe, Op: op,
				Addr: hash.Map(linear), Operand: 1, Issued: cycle,
			}
			t.Begin(inject)
			ok := st.Inject(pe, req, cycle)
			t.End()
			if ok && measuring {
				res.Injected++
				issueCycle[pe][req.ID] = cycle
			}
		}
		st.FlushInject()
		t.End()

		t.Begin(step)
		st.Step(cycle)
		t.End()
		if measuring && cycle%8 == 0 {
			t.Begin(sample)
			net.SampleQueues(res.QueueLen)
			t.End()
		}

		t.Begin(mem)
		for mm := 0; mm < n; mm++ {
			mod := bank.Modules[mm]
			mod.Step(cycle, replyPort{net, mm})
			if mod.Idle() {
				t.Begin(dequeue)
				req, ok := st.MMDequeue(mm)
				t.End()
				if ok {
					dequeued = append(dequeued, req)
					mod.Accept(req, cycle)
				}
			}
		}
		st.FlushMM()
		t.End()
		// One-way transits, observed in module order as trace.Run does.
		for _, req := range dequeued {
			if t0, tracked := issueCycle[req.PE][req.ID]; tracked {
				res.OneWay.Observe(float64(cycle - t0))
			}
		}
		dequeued = dequeued[:0]

		t.Begin(collectLoop)
		for pe := 0; pe < n; pe++ {
			t.Begin(collect)
			reps := st.Collect(pe, cycle)
			t.End()
			for _, rep := range reps {
				if t0, tracked := issueCycle[rep.PE][rep.ID]; tracked {
					res.RoundTrip.Observe(float64(cycle - t0))
					delete(issueCycle[rep.PE], rep.ID)
				}
			}
		}
		st.FlushCollect()
		t.End()
	}
	if t != nil {
		*rootNs = t.EndAt(now())
	}

	for mm, mod := range bank.Modules {
		res.PerModuleServed[mm] = mod.Served.Value() - servedBefore[mm]
		res.Served += res.PerModuleServed[mm]
	}
	res.Combines = net.Stats().Combines.Value() - combinesBefore
	res.Throughput = float64(res.Served) / float64(measure) / float64(n)
	if h := net.Stats().RoundTripHist; h != nil && h.N() > 0 {
		res.RTP50 = float64(h.Quantile(0.50))
		res.RTP99 = float64(h.Quantile(0.99))
	}
	return res
}

// replyPort hands module replies to the network, as trace.Run's own
// adapter does; arrivals are pulled by the driver, so Dequeue is unused.
type replyPort struct {
	net *network.Network
	mm  int
}

func (p replyPort) Dequeue() (msg.Request, bool) { return msg.Request{}, false }
func (p replyPort) Reply(r msg.Reply) bool       { return p.net.MMReply(p.mm, r) }

// resultBytes is the canonical serialization of a trace.Result: every
// count, both transit means, the RT quantiles, the queue-occupancy
// histogram and the per-module served counts.
func resultBytes(r trace.Result) []byte {
	mean := func(m sim.Mean) []float64 {
		return []float64{float64(m.N()), m.Value(), m.Variance(), m.Min(), m.Max()}
	}
	var hist []int64
	var histN, histOver int64
	if h := r.QueueLen; h != nil {
		for v := 0; v < 64; v++ {
			hist = append(hist, h.Count(v))
		}
		histN, histOver = h.N(), h.Overflow()
	}
	raw, err := json.Marshal(struct {
		Offered, Injected, Served, Combines int64
		OneWay, RoundTrip                   []float64
		RTP50, RTP99, Throughput            float64
		QueueLen                            []int64
		QueueN, QueueOverflow               int64
		PerModuleServed                     []int64
	}{
		r.Offered, r.Injected, r.Served, r.Combines,
		mean(r.OneWay), mean(r.RoundTrip),
		r.RTP50, r.RTP99, r.Throughput,
		hist, histN, histOver, r.PerModuleServed,
	})
	if err != nil {
		panic(err) // only finite numbers and ints: cannot fail
	}
	return raw
}
