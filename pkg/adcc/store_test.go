package adcc_test

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"testing"

	"adcc/pkg/adcc"
)

// TestCampaignStoreEndToEnd drives the public store surface: a
// campaign run with WithCampaignStore, the opened store's totals and
// filters, percentile distributions, and the envelope rebuilt
// byte-identically from the store.
func TestCampaignStoreEndToEnd(t *testing.T) {
	path := t.TempDir() + "/campaign.adccs"
	runner := adcc.New(nil,
		adcc.WithScale(0.02),
		adcc.WithParallelism(4),
		adcc.WithWorkloads("mm"),
		adcc.WithInjectionsPerCell(3),
		adcc.WithCampaignStore(path),
	)
	rep, err := runner.RunCampaign(context.Background())
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}

	s, err := adcc.OpenResultStore(path)
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	defer s.Close()

	if s.TotalRows() != int64(rep.Injections) {
		t.Errorf("TotalRows = %d, want %d", s.TotalRows(), rep.Injections)
	}

	// The rebuilt report is the exported envelope's payload.
	rebuilt, err := s.CampaignReport()
	if err != nil {
		t.Fatalf("CampaignReport: %v", err)
	}
	want, err := rep.EncodeJSON()
	if err != nil {
		t.Fatalf("encode live: %v", err)
	}
	got, err := rebuilt.EncodeJSON()
	if err != nil {
		t.Fatalf("encode rebuilt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rebuilt report differs from live report")
	}

	// Filtered scan and distribution answer without error and agree on
	// row counts.
	var rows int64
	err = s.Scan(adcc.StoreFilter{Workload: "mm"}, func(adcc.StoreRow) error {
		rows++
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if rows != s.TotalRows() {
		t.Errorf("mm scan saw %d rows, want %d", rows, s.TotalRows())
	}
	d, err := s.Distribution(adcc.StoreFilter{}, adcc.MetricReworkOps)
	if err != nil {
		t.Fatalf("Distribution: %v", err)
	}
	if d.Count != s.TotalRows() {
		t.Errorf("Distribution.Count = %d, want %d", d.Count, s.TotalRows())
	}
	agg, err := s.Aggregate(adcc.StoreFilter{Outcome: "clean"})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	var clean int64
	for _, c := range rep.Cells {
		clean += int64(c.Clean)
	}
	if agg.Rows != clean {
		t.Errorf("clean-filtered Aggregate.Rows = %d, want %d", agg.Rows, clean)
	}
}

// TestCancelledCampaignLeavesNoStore: a campaign cancelled after its
// first cell returns the context's error and leaves no file at the
// store path — not a footer-terminated prefix that would open and
// re-export as a valid, smaller campaign.
func TestCancelledCampaignLeavesNoStore(t *testing.T) {
	path := t.TempDir() + "/campaign.adccs"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := adcc.New(nil,
		adcc.WithScale(0.05),
		adcc.WithWorkloads("kvlog"),
		adcc.WithCampaignStore(path),
		adcc.WithCampaignCheckpoint(func(adcc.CampaignCell) { cancel() }),
	).RunCampaign(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCampaign = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("cancelled campaign left a file at the store path (stat: %v)", err)
	}
}

// TestStoreVocabulary: the re-exported outcome and metric vocabularies
// parse their own names.
func TestStoreVocabulary(t *testing.T) {
	for _, name := range adcc.CampaignOutcomeNames() {
		if _, err := adcc.ParseCampaignOutcome(name); err != nil {
			t.Errorf("ParseCampaignOutcome(%q): %v", name, err)
		}
	}
	for _, name := range adcc.StoreMetricNames() {
		if _, err := adcc.ParseStoreMetric(name); err != nil {
			t.Errorf("ParseStoreMetric(%q): %v", name, err)
		}
	}
	if adcc.OutcomeCorrupt.String() != "corrupt" {
		t.Errorf("OutcomeCorrupt.String() = %q", adcc.OutcomeCorrupt.String())
	}
}
