package harness

import (
	"context"
	"fmt"
	"os"

	"adcc/internal/bench"
	"adcc/internal/campaign"
	"adcc/internal/report"
	"adcc/internal/resultstore"
)

// RunCampaign runs the statistical fault-injection campaign
// (internal/campaign) and renders the per-scheme survival table: for
// every workload x scheme x platform cell, how many of the swept crash
// points ended in clean recovery, detected recomputation, silent
// corruption, or an unrecoverable state. With Options.Events set, every
// injection streams an InjectionDone event in deterministic order; the
// file and collector outputs are RunCampaignConfig's.
func RunCampaign(ctx context.Context, o Options) (*Table, error) {
	rep, err := RunCampaignConfig(ctx, campaign.Config{
		Scale:       o.scale(),
		Seed:        o.Seed,
		Parallel:    o.Parallel,
		PerCell:     o.PerCell,
		Workloads:   o.Workloads,
		Schemes:     o.Schemes,
		FaultModels: o.FaultModels,
		Registry:    o.Registry,
		Events:      o.Events,
		Verbose:     o.Verbose,
		Out:         o.Out,
	}, o.CampaignStore, o.CampaignJSON, o.Collector)
	if err != nil {
		return nil, err
	}
	return CampaignTable(rep), nil
}

// RunCampaignConfig runs cfg and fans the report out to the optional
// outputs — the one path both the "campaign" experiment and pkg/adcc's
// Runner.RunCampaign take. With storePath set, every injection's raw
// outcome row goes to a columnar result store there; with jsonPath set,
// the full deterministic report is written there inside the
// adcc-report/v1 envelope; with col set, every cell is also recorded as
// a bench result so benchdiff gates recovery-rate regressions.
func RunCampaignConfig(ctx context.Context, cfg campaign.Config, storePath, jsonPath string, col *bench.Collector) (*campaign.Report, error) {
	var store *os.File
	var sw *resultstore.Writer
	if storePath != "" {
		// The store footer carries the same normalized scale the report
		// records, so the rebuilt envelope is byte-identical.
		scale := cfg.Scale
		if scale <= 0 {
			scale = 1.0
		}
		var err error
		if store, err = os.Create(storePath); err != nil {
			return nil, err
		}
		sw = resultstore.NewWriter(store, scale, cfg.Seed)
		cfg.Sink = sw
	}
	rep, err := campaign.Run(ctx, cfg)
	if store != nil {
		// Only a completed sweep is finalized. A failed or cancelled one
		// has streamed a prefix of the cells; with a footer that prefix
		// would open and re-export as a valid, smaller campaign, so no
		// file is left instead.
		if err == nil {
			err = sw.Close()
		}
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(storePath)
		}
	}
	if err != nil {
		return nil, err
	}
	for _, r := range rep.BenchResults() {
		col.Record(r)
	}
	if jsonPath != "" {
		if err := report.WrapCampaign(rep).WriteFile(jsonPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// CampaignTable renders a campaign report as the survival table shown
// by both adccbench and crashsim -campaign.
func CampaignTable(rep *campaign.Report) *Table {
	t := &Table{
		Name:  "campaign",
		Title: "Crash-injection survival by scheme",
		Headers: []string{
			"Workload", "Scheme", "System", "Fault", "Inj", "Clean", "Recomp",
			"Corrupt", "Unrec", "Recovery", "Rework/grain",
		},
	}
	for _, c := range rep.Cells {
		rework := 0.0
		if crashed := c.Injections - c.NoCrash; crashed > 0 && c.GrainOps > 0 {
			rework = float64(c.ReworkOps) / float64(crashed) / float64(c.GrainOps)
		}
		fault := c.FaultModel
		if fault == "" {
			fault = "failstop"
		}
		t.AddRow(c.Workload, c.Scheme, c.System, fault, c.Injections,
			c.Clean, c.Recomputed, c.Corrupt, c.Unrecoverable,
			fmt.Sprintf("%.1f%%", 100*c.RecoveryRate),
			fmt.Sprintf("%.2f", rework))
	}
	t.AddNote("%d injections: seeded random op points + trigger occurrences, one recovery fork per distinct post-crash state", rep.Injections)
	t.AddNote("Recovery = verified result after crash; Rework/grain = mean ops redone per crash, in main-loop iterations")
	return t
}
