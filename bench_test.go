// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure, plus the ablations DESIGN.md calls out and a few
// micro-benchmarks of the substrates. Reported custom metrics carry the
// figures' actual quantities (transit times, idle fractions,
// efficiencies); ns/op measures the simulation itself.
package ultracomputer

import (
	"testing"

	"ultracomputer/internal/analytic"
	"ultracomputer/internal/apps"
	"ultracomputer/internal/coord"
	"ultracomputer/internal/experiments"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/para"
	"ultracomputer/internal/pe"
	"ultracomputer/internal/trace"
)

// ---------------------------------------------------------------------
// Figure 7 — network transit time vs traffic intensity.
// ---------------------------------------------------------------------

// BenchmarkFigure7Analytic sweeps the §4.1 queueing model over the
// paper's six configurations and reports the duplexed-4×4 transit time
// at p = 0.2 (the configuration the paper declares best).
func BenchmarkFigure7Analytic(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		for _, cfg := range analytic.Figure7Configs(4096) {
			s := analytic.Figure7Series(cfg, 0.35, 35)
			if cfg.K == 4 && cfg.D == 2 {
				best = s.Points[len(s.Points)-1].Y
			}
		}
	}
	b.ReportMetric(analytic.TransitTime(analytic.NetConfig{N: 4096, K: 4, M: 4, D: 2}, 0.2), "T(k4d2,p0.2)")
	_ = best
}

// BenchmarkFigure7Simulated runs the cycle simulator at a moderate load
// and reports the measured one-way transit beside the analytic value for
// the same (scaled-down) machine.
func BenchmarkFigure7Simulated(b *testing.B) {
	cfg := network.Config{K: 2, Stages: 6, Combining: true}
	w := trace.Workload{Rate: 0.1, Hash: true, Seed: 17}
	var measured float64
	for i := 0; i < b.N; i++ {
		r := trace.Run(cfg, w, 1000, 4000)
		measured = r.OneWay.Value()
	}
	model := analytic.NetConfig{N: 64, K: 2, M: 3, D: 1}
	b.ReportMetric(measured, "simT")
	b.ReportMetric(analytic.TransitTime(model, 0.1), "analyticT")
}

// ---------------------------------------------------------------------
// Table 1 — network traffic and performance of the four programs.
// ---------------------------------------------------------------------

func table1Bench(b *testing.B, row func(sizes experiments.Table1Sizes) experiments.Table1Row) {
	sizes := experiments.QuickTable1Sizes
	var r experiments.Table1Row
	for i := 0; i < b.N; i++ {
		r = row(sizes)
	}
	b.ReportMetric(r.AvgCMAccess, "cmAccess")
	b.ReportMetric(r.IdleFrac*100, "idle%")
	b.ReportMetric(r.IdlePerCMLoad, "idle/load")
	b.ReportMetric(r.MemRefPerInstr, "ref/ins")
	b.ReportMetric(r.SharedRefPerInstr, "shared/ins")
}

func BenchmarkTable1Weather16(b *testing.B) {
	table1Bench(b, func(s experiments.Table1Sizes) experiments.Table1Row {
		return experiments.Table1Weather(16, s)
	})
}

func BenchmarkTable1Weather48(b *testing.B) {
	table1Bench(b, func(s experiments.Table1Sizes) experiments.Table1Row {
		return experiments.Table1Weather(48, s)
	})
}

func BenchmarkTable1TRED2(b *testing.B) {
	table1Bench(b, func(s experiments.Table1Sizes) experiments.Table1Row {
		return experiments.Table1Tred2(s)
	})
}

func BenchmarkTable1Multigrid(b *testing.B) {
	table1Bench(b, func(s experiments.Table1Sizes) experiments.Table1Row {
		return experiments.Table1Poisson(s)
	})
}

// ---------------------------------------------------------------------
// Tables 2 and 3 — TRED2 efficiencies, measured fit and projection.
// ---------------------------------------------------------------------

// BenchmarkTable2Fit simulates a small (P, N) grid, fits the §5.0 model
// and reports the fitted a/d ratio (the paper's Table 3 pins it at ≈7.2)
// and the measured-corner efficiency E(16,16).
func BenchmarkTable2Fit(b *testing.B) {
	grid := experiments.TredGrid{Ps: []int{1, 4, 8, 16}, Ns: []int{8, 16, 24}}
	var model analytic.TREDModel
	for i := 0; i < b.N; i++ {
		samples := experiments.MeasureTred2(grid)
		model, _, _ = experiments.Tables23(samples)
	}
	b.ReportMetric(model.A/model.D, "a/d")
	b.ReportMetric(100*model.Efficiency(16, 16), "E(16,16)%")
	b.ReportMetric(100*model.Efficiency(64, 64), "E(64,64)%")
}

// BenchmarkTable3Model evaluates the no-waiting projection over the
// paper's grid with the paper-calibrated constants (pure model; fast).
func BenchmarkTable3Model(b *testing.B) {
	var grid [][]float64
	for i := 0; i < b.N; i++ {
		grid = analytic.EfficiencyGrid(analytic.PaperCalibratedModel, false)
	}
	b.ReportMetric(grid[0][0], "E(16,16)%")
	b.ReportMetric(grid[6][4], "E(4096,1024)%")
}

// ---------------------------------------------------------------------
// Ablations — the design choices §3 argues for.
// ---------------------------------------------------------------------

func hotspotCycles(b *testing.B, combining bool) int64 {
	b.Helper()
	cfg := machine.Config{
		Net:     network.Config{K: 2, Stages: 5, Combining: combining},
		Hashing: true,
	}
	m := machine.SPMD(cfg, 32, func(ctx *pe.Ctx) {
		for r := 0; r < 16; r++ {
			ctx.FetchAdd(7, 1)
		}
	})
	return m.MustRun(100_000_000)
}

// BenchmarkAblationCombining measures the hot-spot speedup combining
// provides over the identical non-combining network.
func BenchmarkAblationCombining(b *testing.B) {
	var on, off int64
	for i := 0; i < b.N; i++ {
		on = hotspotCycles(b, true)
		off = hotspotCycles(b, false)
	}
	b.ReportMetric(float64(on), "cyclesCombining")
	b.ReportMetric(float64(off), "cyclesPlain")
	b.ReportMetric(float64(off)/float64(on), "speedup")
}

// BenchmarkAblationQueueSize checks §4.2's claim that modest switch
// queues behave like infinite ones at working loads.
func BenchmarkAblationQueueSize(b *testing.B) {
	w := trace.Workload{Rate: 0.10, Hash: true, Seed: 13}
	var small, big float64
	for i := 0; i < b.N; i++ {
		rs := trace.Run(network.Config{K: 2, Stages: 4, Combining: true, QueueCapacity: 15}, w, 500, 3000)
		rb := trace.Run(network.Config{K: 2, Stages: 4, Combining: true, QueueCapacity: 1000}, w, 500, 3000)
		small, big = rs.OneWay.Value(), rb.OneWay.Value()
	}
	b.ReportMetric(small, "T(q=15)")
	b.ReportMetric(big, "T(q=1000)")
}

// BenchmarkAblationHashing measures module-load skew with and without
// the §3.1.4 address hashing under uniform linear addresses.
func BenchmarkAblationHashing(b *testing.B) {
	skew := func(hash bool) float64 {
		r := trace.Run(network.Config{K: 2, Stages: 4, Combining: true},
			trace.Workload{Rate: 0.1, Hash: hash, Seed: 9}, 500, 3000)
		var total, max int64
		for _, s := range r.PerModuleServed {
			total += s
			if s > max {
				max = s
			}
		}
		if total == 0 {
			return 0
		}
		return float64(max) * float64(len(r.PerModuleServed)) / float64(total)
	}
	var hashed, plain float64
	for i := 0; i < b.N; i++ {
		hashed = skew(true)
		plain = skew(false)
	}
	b.ReportMetric(hashed, "skewHashed")
	b.ReportMetric(plain, "skewPlain")
}

// BenchmarkAblationCopies compares transit time of one network copy vs a
// duplexed network at the same offered load (§4.1's d parameter).
func BenchmarkAblationCopies(b *testing.B) {
	w := trace.Workload{Rate: 0.18, Hash: true, Seed: 23}
	var d1, d2 float64
	for i := 0; i < b.N; i++ {
		r1 := trace.Run(network.Config{K: 2, Stages: 4, Combining: true, Copies: 1}, w, 500, 3000)
		r2 := trace.Run(network.Config{K: 2, Stages: 4, Combining: true, Copies: 2}, w, 500, 3000)
		d1, d2 = r1.OneWay.Value(), r2.OneWay.Value()
	}
	b.ReportMetric(d1, "T(d=1)")
	b.ReportMetric(d2, "T(d=2)")
}

// BenchmarkAblationUnbuffered compares per-PE throughput of the queued
// combining network against the kill-on-conflict unbuffered banyan
// (§3.1.2's rejected alternative) under saturating uniform traffic.
func BenchmarkAblationUnbuffered(b *testing.B) {
	var unbuf float64
	for i := 0; i < b.N; i++ {
		unbuf = network.NewUnbuffered(2, 5, 7).Throughput(1.0, 300)
	}
	b.ReportMetric(unbuf, "unbufferedPerRound")
	b.ReportMetric(network.NewUnbuffered(2, 10, 7).Throughput(1.0, 100), "unbuffered1024ports")
}

// BenchmarkAblationIdealMemory quantifies the whole network's cost: the
// same fetch-and-add workload on the real machine vs the WASHCLOTH-style
// ideal paracomputer memory.
func BenchmarkAblationIdealMemory(b *testing.B) {
	run := func(ideal bool) int64 {
		cfg := machine.Config{
			Net:         network.Config{K: 2, Stages: 5, Combining: true},
			Hashing:     true,
			IdealMemory: ideal,
		}
		m := machine.SPMD(cfg, 16, func(ctx *pe.Ctx) {
			for r := 0; r < 32; r++ {
				ctx.FetchAdd(int64(r%5), 1)
			}
		})
		return m.MustRun(50_000_000)
	}
	var real, ideal int64
	for i := 0; i < b.N; i++ {
		real = run(false)
		ideal = run(true)
	}
	b.ReportMetric(float64(real), "cyclesNetwork")
	b.ReportMetric(float64(ideal), "cyclesIdeal")
	b.ReportMetric(float64(real)/float64(ideal), "networkCost")
}

// BenchmarkAblationMultiprogramming measures §3.5's k-fold latency
// hiding: idle fraction of a latency-bound workload at stream counts 1,
// 2 and 4 on one PE.
func BenchmarkAblationMultiprogramming(b *testing.B) {
	idleAt := func(k int) float64 {
		cores := make([]pe.Core, k)
		for s := 0; s < k; s++ {
			base := int64(s * 1000)
			cores[s] = pe.NewGoCore(func(ctx *pe.Ctx) {
				for i := int64(0); i < 48; i++ {
					ctx.Load(base + i)
					ctx.Compute(1)
				}
			})
		}
		cfg := machine.Config{
			Net:     network.Config{K: 2, Stages: 4, Combining: true},
			Hashing: true,
			PEs:     1,
		}
		m := machine.New(cfg, []pe.Core{pe.NewMultiCore(cores...)})
		m.MustRun(50_000_000)
		return m.Report().IdleFrac
	}
	var i1, i2, i4 float64
	for i := 0; i < b.N; i++ {
		i1, i2, i4 = idleAt(1), idleAt(2), idleAt(4)
	}
	b.ReportMetric(i1*100, "idle%k1")
	b.ReportMetric(i2*100, "idle%k2")
	b.ReportMetric(i4*100, "idle%k4")
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------

// BenchmarkNetworkCycle measures raw simulation speed: one cycle of a
// 64-port combining network under a seeded uniform load of 0.2 requests
// per PE per cycle, driven by trace.Run (generation, Network.Step,
// module service and reply collection). One op is one cycle; the
// network's build and its fill from empty are amortized over b.N.
func BenchmarkNetworkCycle(b *testing.B) {
	cfg := network.Config{K: 2, Stages: 6, Combining: true}
	w := trace.Workload{Rate: 0.2, Hash: true, Seed: 3}
	r := trace.Run(cfg, w, 0, int64(b.N))
	if b.N >= 1000 && r.Served == 0 {
		b.Fatal("no requests served: the network ran empty")
	}
	b.ReportMetric(r.Throughput, "served/PE/cycle")
}

// BenchmarkParaFetchAdd measures the ideal paracomputer's fetch-and-add
// under goroutine contention.
func BenchmarkParaFetchAdd(b *testing.B) {
	mem := para.NewMemory()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mem.FetchAdd(0, 1)
		}
	})
}

// BenchmarkParaQueue measures insert+delete pairs through the appendix
// queue on the ideal paracomputer.
func BenchmarkParaQueue(b *testing.B) {
	mem := para.NewMemory()
	q := coord.NewQueue(mem, 0, 1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Insert(1)
			q.Delete()
		}
	})
}

// BenchmarkMachineFetchAdd measures the simulated cost of one
// fetch-and-add round trip on an otherwise idle machine.
func BenchmarkMachineFetchAdd(b *testing.B) {
	cfg := machine.Config{Net: network.Config{K: 2, Stages: 4, Combining: true}, Hashing: true}
	for i := 0; i < b.N; i++ {
		m := machine.SPMD(cfg, 1, func(ctx *pe.Ctx) {
			for r := 0; r < 64; r++ {
				ctx.FetchAdd(int64(r), 1)
			}
		})
		m.MustRun(10_000_000)
	}
}

// BenchmarkTred2Machine measures end-to-end simulation speed of the
// parallel TRED2 at a small size.
func BenchmarkTred2Machine(b *testing.B) {
	a := experiments.RandSym(16, 3)
	for i := 0; i < b.N; i++ {
		m, _ := apps.NewTred2Machine(experiments.PaperMachine(), 8, a, apps.DefaultTred2Cost)
		m.MustRun(1_000_000_000)
	}
}
