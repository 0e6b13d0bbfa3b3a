// Command crash_campaign is a runnable walkthrough of the statistical
// fault-injection engine through the public pkg/adcc API: it enumerates
// the crash-point space of one Monte-Carlo run, sweeps a small seeded
// campaign of injections across three representative schemes on both
// simulated platforms with live streaming events, and prints what each
// scheme survived — the selective-flush algorithm-directed scheme
// recovers every point, the rejected index-only variant silently
// corrupts (the paper's Figure 10 bias), and checkpointing recovers at
// a higher rework cost.
//
// Run it from the repo root:
//
//	go run ./examples/crash_campaign
//
// The full grid (all workloads x schemes x platforms, with a JSON
// report) is:
//
//	go run ./cmd/adccbench -experiment campaign -scale 0.1 -parallel 4 -json campaign.json
package main

import (
	"context"
	"fmt"
	"os"

	"adcc/pkg/adcc"
)

func main() {
	// 1. The crash-point space: profile one uninterrupted run.
	reg := adcc.NewRegistry()
	m := adcc.NewMachine(adcc.MachineConfig{})
	em := adcc.NewEmulator(m)
	w := &adcc.MCWorkload{
		Cfg:    adcc.MCTinyConfig(),
		Scheme: reg.MustScheme(adcc.SchemeAlgoNVM),
	}
	if err := w.Prepare(m, em); err != nil {
		panic(err)
	}
	prof := em.Profile(func() { w.Run(w.Start()) })
	fmt.Printf("one MC run: %d memory operations, triggers: %v\n", prof.Ops, prof.Triggers)

	// 2. Deterministic seeded crash points: half random op counts, half
	// random occurrences of the instrumented program points.
	pts := prof.Points(6, 1)
	fmt.Printf("6 seeded crash points: %v\n\n", pts)

	// 3. A small campaign over three representative schemes, with the
	// injection outcomes streamed as they classify. Each cell runs its
	// workload once and forks recovery once per class of equal
	// post-crash states; the report — and the event stream — is
	// byte-identical at any parallelism.
	corrupt := 0
	runner := adcc.New(reg,
		adcc.WithScale(0.05),
		adcc.WithParallelism(4),
		adcc.WithInjectionsPerCell(10),
		adcc.WithWorkloads(adcc.WorkloadMC),
		adcc.WithSchemes(
			adcc.SchemeAlgoNVM,   // paper's selective flushing
			adcc.SchemeAlgoNaive, // rejected index-only flushing
			adcc.SchemeCkptNVM,   // conventional checkpointing
		),
		adcc.WithEventSink(adcc.SinkFunc(func(e adcc.Event) {
			if inj, ok := e.(adcc.InjectionDone); ok && inj.Outcome == "corrupt" {
				corrupt++
				fmt.Printf("  [event] %s\n", inj)
			}
		})),
	)
	rep, err := runner.RunCampaign(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n%d injections streamed, %d silently corrupted (all under algo-naive):\n\n",
		rep.Injections, corrupt)
	adcc.CampaignTable(rep).Fprint(os.Stdout)
}
