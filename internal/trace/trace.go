// Package trace drives the simulated network with synthetic memory
// traffic — the independent, identically distributed random request
// streams of the paper's §4.1 analysis plus hot-spot variants — and
// measures transit times and throughput. It is the bridge between the
// analytic model (internal/analytic) and the cycle simulator
// (internal/network): Figure 7's curves are validated by running the same
// loads through both.
package trace

import (
	"fmt"

	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/sim"
)

// Workload describes a synthetic traffic pattern.
type Workload struct {
	// Rate is p, the average number of requests each PE offers per
	// network cycle (must stay below the configuration's capacity for
	// the system to be stable).
	Rate float64
	// HotFraction routes this fraction of requests to the single
	// HotWord (the rest go to uniformly random modules and words) —
	// the §3.1.2 interprocessor-coordination hot spot.
	HotFraction float64
	// HotWord is the linear address of the hot spot.
	HotWord int64
	// Words is the size of the uniform address space (default 1<<20).
	Words int64
	// Mix selects operations: fractions of loads, stores and
	// fetch-and-adds; they should sum to 1 (defaults to all
	// fetch-and-adds, the worst-case 3-packet messages).
	LoadFrac, StoreFrac float64
	// Hash spreads addresses over modules when true (§3.1.4).
	Hash bool
	// Burstiness > 0 modulates injection with an on/off process of the
	// given mean phase length (cycles): during ON phases each PE offers
	// at 2×Rate, during OFF phases not at all, keeping the mean at Rate
	// but raising its variance — the "traffic with high variance" the
	// §4.1 discussion worries about.
	Burstiness int
	// MMLatency is the module service time in network cycles
	// (default 2).
	MMLatency int64
	// Seed makes runs reproducible.
	Seed uint64
	// Probe, when non-nil, receives every network/memory event of the
	// run (inject, per-stage hops, combines, MNI service, replies).
	Probe obs.Probe
	// Sampler, when non-nil, records a metrics snapshot every
	// Sampler.Every cycles of the run.
	Sampler *obs.Sampler
	// Tracer, when non-nil, samples requests for causal per-hop tracing
	// (internal/obs/reqtrace); sampled requests carry a trace context and
	// the run records their complete span trees.
	Tracer *reqtrace.Tracer
	// Profiler, when non-nil, records the contention heatmap side of the
	// guest profiler — per-word accesses on injection, per-module serve
	// counts, per-word combines. The synthetic runner has no PEs
	// executing instructions, so the cycle-attribution side stays empty;
	// netperf uses this to price the profiler's hot-path hooks.
	Profiler *prof.Profiler
}

func (w Workload) withDefaults() Workload {
	if w.Words == 0 {
		w.Words = 1 << 20
	}
	if w.MMLatency == 0 {
		w.MMLatency = 2
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	return w
}

// Result aggregates a measurement run.
type Result struct {
	// Offered counts generation attempts; Injected those the network
	// accepted; Served the requests memory completed in the measurement
	// window.
	Offered, Injected, Served int64
	// OneWay observes inject-to-module transit in network cycles.
	OneWay sim.Mean
	// RoundTrip observes inject-to-reply time in network cycles.
	RoundTrip sim.Mean
	// RTP50/RTP99 are round-trip quantiles over the whole run (warmup
	// included — the network's cumulative distribution).
	RTP50, RTP99 float64
	// Throughput is served requests per PE per cycle over the
	// measurement window.
	Throughput float64
	// Combines counts switch combinations during the whole run.
	Combines int64
	// QueueLen is the distribution of switch output-queue occupancy
	// (packets), sampled every few cycles during the measurement
	// window.
	QueueLen *sim.Histogram
	// PerModuleServed is the per-MM service count (hot-spot skew
	// diagnostics).
	PerModuleServed []int64
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("offered=%d injected=%d served=%d oneway=%.2f rt=%.2f thpt=%.4f combines=%d",
		r.Offered, r.Injected, r.Served, r.OneWay.Value(), r.RoundTrip.Value(),
		r.Throughput, r.Combines)
}

// Run drives the network for warmup+measure cycles and reports statistics
// gathered over the measurement window. Each cycle generates requests PE
// by PE, steps the network, lets the modules serve module by module and
// collects replies PE by PE, all on the calling goroutine, so same-seed
// runs are byte-identical.
func Run(cfg network.Config, w Workload, warmup, measure int64) Result {
	w = w.withDefaults()
	net := network.New(cfg)
	n := net.Ports()
	var hash memory.Hasher
	if w.Hash {
		hash = memory.MultHash{N: n}
	} else {
		hash = memory.Interleave{N: n}
	}
	bank := memory.NewBank(n, w.MMLatency, hash)
	if w.Probe != nil {
		net.SetProbe(w.Probe)
		bank.SetProbe(w.Probe)
	}
	if w.Tracer != nil {
		net.SetTracer(w.Tracer)
		bank.SetTracer(w.Tracer)
	}
	profiling := w.Profiler != nil && w.Profiler.Enabled()
	if profiling {
		w.Profiler.SetMMs(len(bank.Modules))
		bank.SetProfiler(w.Profiler)
		net.SetProfiler(w.Profiler)
	}
	rng := sim.NewRand(w.Seed)
	peRng := make([]*sim.Rand, n)
	burstOn := make([]bool, n)
	for i := range peRng {
		peRng[i] = rng.Fork()
		burstOn[i] = i%2 == 0
	}

	var res Result
	res.PerModuleServed = make([]int64, n)
	res.QueueLen = sim.NewHistogram(64)
	servedBefore := make([]int64, n)

	// Request IDs are pe<<32|seq, unique among in-flight requests;
	// issueCycle timestamps the ones injected in the measurement window.
	seq := make([]uint64, n)
	issueCycle := make(map[uint64]int64)
	ports := make([]memory.Port, len(bank.Modules))
	for mm := range ports {
		ports[mm] = replyPort{net, mm}
	}

	total := warmup + measure
	combinesBefore := int64(0)
	for cycle := int64(0); cycle < total; cycle++ {
		if cycle == warmup {
			combinesBefore = net.Stats().Combines.Value()
			for mm, mod := range bank.Modules {
				servedBefore[mm] = mod.Served.Value()
			}
		}
		measuring := cycle >= warmup

		// Generation: each PE offers a request with probability Rate
		// (modulated by the on/off process when Burstiness is set).
		for pe := 0; pe < n; pe++ {
			r := peRng[pe]
			rate := w.Rate
			if w.Burstiness > 0 {
				if r.Bernoulli(1 / float64(w.Burstiness)) {
					burstOn[pe] = !burstOn[pe]
				}
				if burstOn[pe] {
					rate = 2 * w.Rate
				} else {
					rate = 0
				}
			}
			if !r.Bernoulli(rate) {
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
				Addr:    hash.Map(linear),
				Operand: 1,
				Issued:  cycle,
			}
			if w.Tracer != nil {
				req.TC = w.Tracer.ContextFor(req.ID)
			}
			if net.Inject(pe, req, cycle) {
				if profiling {
					w.Profiler.ProfIssue(pe, 0, op, linear, req.Addr)
				}
				if measuring {
					res.Injected++
					issueCycle[req.ID] = cycle
				}
			}
		}

		net.Step(cycle)
		if measuring && cycle%8 == 0 {
			net.SampleQueues(res.QueueLen)
		}
		if w.Sampler != nil && w.Sampler.Due(cycle) {
			sn := net.Snapshot(cycle)
			bank.Observe(&sn)
			w.Sampler.Record(sn)
		}

		// Memory side: let the modules finish in-progress work, then
		// hand each idle module its next arrival (timestamped here for
		// the one-way transit measurement).
		for mm, mod := range bank.Modules {
			mod.Step(cycle, ports[mm])
			if !mod.Idle() {
				continue
			}
			if req, ok := net.MMDequeue(mm); ok {
				if t0, tracked := issueCycle[req.ID]; tracked {
					res.OneWay.Observe(float64(cycle - t0))
				}
				mod.Accept(req, cycle)
			}
		}

		// PE side: collect replies.
		for pe := 0; pe < n; pe++ {
			for _, rep := range net.Collect(pe, cycle) {
				if t0, tracked := issueCycle[rep.ID]; tracked {
					res.RoundTrip.Observe(float64(cycle - t0))
					delete(issueCycle, rep.ID)
				}
			}
		}
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

// replyPort adapts the network MM side for module replies; Dequeue is
// unused because the runner pulls arrivals itself to timestamp them.
type replyPort struct {
	net *network.Network
	mm  int
}

func (p replyPort) Dequeue() (msg.Request, bool) { return msg.Request{}, false }
func (p replyPort) Reply(r msg.Reply) bool       { return p.net.MMReply(p.mm, r) }
