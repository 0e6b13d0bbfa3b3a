package harness

import (
	"context"
	"fmt"

	"adcc/internal/campaign"
	"adcc/internal/report"
	"adcc/internal/resultstore"
)

// RunCampaign runs the statistical fault-injection campaign
// (internal/campaign) and renders the per-scheme survival table: for
// every workload x scheme x platform cell, how many of the swept crash
// points ended in clean recovery, detected recomputation, silent
// corruption, or an unrecoverable state. With Options.Collector set,
// every cell is also recorded as a bench result so benchdiff gates
// recovery-rate regressions; with Options.CampaignJSON set, the full
// deterministic report is written there inside the adcc-report/v1
// envelope; with Options.Events set, every injection streams an
// InjectionDone event in deterministic order.
func RunCampaign(ctx context.Context, o Options) (*Table, error) {
	cfg := campaign.Config{
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
	}
	var fw *resultstore.FileWriter
	if o.CampaignStore != "" {
		var err error
		if fw, err = resultstore.CreateFile(o.CampaignStore, cfg.Scale, cfg.Seed); err != nil {
			return nil, err
		}
		cfg.Sink = fw
	}
	rep, err := campaign.Run(ctx, cfg)
	if fw != nil {
		if cerr := fw.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("harness: write campaign store: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	for _, r := range rep.BenchResults() {
		o.Collector.Record(r)
	}
	if o.CampaignJSON != "" {
		if err := report.WrapCampaign(rep).WriteFile(o.CampaignJSON); err != nil {
			return nil, err
		}
	}
	return CampaignTable(rep), nil
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
