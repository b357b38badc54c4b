// Hotspot demonstrates the Ultracomputer's central hardware claim
// (§3.1.2–3.1.3): when every PE hammers one shared cell with
// fetch-and-add, the combining switches satisfy any number of concurrent
// references in the time of one memory access — so interprocessor
// coordination is never serialized. The same experiment with combining
// disabled shows the serial bottleneck the design eliminates.
//
//	go run ./examples/hotspot
//	go run ./examples/hotspot -trace hotspot.json -metrics hotspot.jsonl
//
// With -trace, the combining run is recorded and exported as a Chrome
// trace_event file (open in https://ui.perfetto.dev): each memory-module
// service span's "serves" argument lists every origin request it
// answered, the combining tree made visible.
package main

import (
	"flag"
	"fmt"
	"os"

	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/pe"
)

func main() {
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the combining run to this file")
	metricsOut := flag.String("metrics", "", "write sampled per-stage metrics of the combining run as JSONL to this file")
	sampleEvery := flag.Int64("sample-every", 16, "network cycles between metrics samples")
	serveAddr := flag.String("serve", "", "serve live telemetry for the combining run on this address")
	reqRate := flag.Float64("reqtrace", 0, "fraction of memory requests to trace causally (0 = off, 1 = all)")
	spansOut := flag.String("spans", "", "write request-trace spans of BOTH runs as JSONL: <file> for the combining run, <file>.plain for the uncombined control (implies -reqtrace 1 when the rate is unset)")
	flag.Parse()

	if *spansOut != "" && *reqRate == 0 {
		*reqRate = 1
	}
	const rounds = 32
	fmt.Println("64 PEs performing fetch-and-adds on ONE shared cell")
	fmt.Printf("%-14s %12s %14s %12s %12s\n",
		"switches", "PE cycles", "CM access", "combines", "MM ops")
	run(true, rounds, *traceOut, *metricsOut, *sampleEvery, *serveAddr, *reqRate, *spansOut)
	plainSpans := ""
	if *spansOut != "" {
		plainSpans = *spansOut + ".plain"
	}
	run(false, rounds, "", "", 0, "", *reqRate, plainSpans)
	fmt.Println("\ncombining turns a serial hot spot into logarithmic fan-in:")
	fmt.Println("memory serves far fewer operations and latency stays flat.")
	if *reqRate > 0 {
		fmt.Println("the span genealogy shows the same story per request: combining runs")
		fmt.Println("link spans into trees at the switches, uncombined runs never do.")
	}
}

func run(combining bool, rounds int, traceOut, metricsOut string, sampleEvery int64, serveAddr string, reqRate float64, spansOut string) {
	cfg := machine.Config{
		Net:     network.Config{K: 2, Stages: 6, Combining: combining},
		Hashing: true,
	}
	m := machine.SPMD(cfg, 64, func(ctx *pe.Ctx) {
		for i := 0; i < rounds; i++ {
			ctx.FetchAdd(7, 1)
		}
	})
	var rec *obs.Recorder
	if traceOut != "" || serveAddr != "" {
		rec = obs.NewRecorder(obs.DefaultRecorderCapacity)
		m.SetProbe(rec)
	}
	var sampler *obs.Sampler
	if metricsOut != "" || serveAddr != "" {
		if sampleEvery <= 0 {
			sampleEvery = 16
		}
		sampler = obs.NewSampler(sampleEvery)
		m.SetSampler(sampler)
	}
	var tracer *reqtrace.Tracer
	if reqRate > 0 {
		tracer = reqtrace.New(reqtrace.Config{Rate: reqRate})
		m.SetTracer(tracer)
	}
	var feed *live.Feed
	if serveAddr != "" {
		srv := live.NewServer()
		feed = &live.Feed{
			Server:   srv,
			Monitor:  live.NewMonitor(live.ModelFor(cfg.Net, cfg.MMLatency, 0)),
			Recorder: rec,
		}
		feed.Attach(sampler)
		hs, bound, err := srv.Start(serveAddr)
		check(err)
		defer hs.Close()
		fmt.Printf("telemetry: http://%s/metrics\n", bound)
	}
	cycles := m.MustRun(100_000_000)
	if feed != nil {
		feed.Finish()
		if st := feed.Last(); st != nil && st.Conformance != nil {
			fmt.Printf("model conformance: %s\n", st.Conformance)
		}
	}
	if got := m.ReadShared(7); got != 64*int64(rounds) {
		panic(fmt.Sprintf("counter = %d, want %d", got, 64*rounds))
	}
	r := m.Report()
	name := "combining"
	if !combining {
		name = "plain queued"
	}
	fmt.Printf("%-14s %12d %11.1f ins %12d %12d\n",
		name, cycles, r.AvgCMAccess, r.Combines, r.MMOpsServed)

	if traceOut != "" {
		f, err := os.Create(traceOut)
		check(err)
		check(obs.WriteChromeTrace(f, rec.Events()))
		check(f.Close())
		fmt.Printf("wrote %s (%d events)\n", traceOut, rec.Len())
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		check(err)
		check(sampler.WriteJSONL(f))
		check(f.Close())
		fmt.Printf("wrote %s (%d samples)\n", metricsOut, len(sampler.Snapshots()))
	}
	if tracer != nil {
		fmt.Printf("  traced %d spans, %d combine links, mean latency %.1f cycles\n",
			tracer.Completed(), tracer.CombineLinks(), tracer.MeanLatency())
		if spansOut != "" {
			f, err := os.Create(spansOut)
			check(err)
			check(tracer.WriteSpansJSONL(f))
			check(f.Close())
			fmt.Printf("  wrote %s (inspect with: tables -spans %s)\n", spansOut, spansOut)
		}
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
