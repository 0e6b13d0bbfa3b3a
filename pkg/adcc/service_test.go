package adcc_test

import (
	"context"
	"strings"
	"testing"

	"adcc/pkg/adcc"
)

// TestCampaignSpecCacheKey asserts the content-address contract: the
// key is invariant under list order, duplicates, default-scale
// spelling, and the ignored Replay field — exactly the transformations
// that provably do not change report bytes — and sensitive to
// everything else.
func TestCampaignSpecCacheKey(t *testing.T) {
	base := adcc.CampaignSpec{
		Scale:     1.0,
		Workloads: []string{"mc", "mm"},
		Schemes:   []string{"native", "algo-NVM-only"},
	}
	same := []adcc.CampaignSpec{
		{Scale: 0, Workloads: []string{"mm", "mc"}, Schemes: []string{"algo-NVM-only", "native"}},
		{Scale: 1.0, Workloads: []string{"mc", "mm", "mc"}, Schemes: []string{"native", "algo-NVM-only"}, Replay: true},
	}
	for i, s := range same {
		if s.CacheKey() != base.CacheKey() {
			t.Errorf("spec #%d: key %s differs from base %s", i, s.CacheKey(), base.CacheKey())
		}
	}
	diff := []adcc.CampaignSpec{
		{Scale: 0.5, Workloads: base.Workloads, Schemes: base.Schemes},
		{Scale: 1.0, Seed: 7, Workloads: base.Workloads, Schemes: base.Schemes},
		{Scale: 1.0, Workloads: []string{"mc"}, Schemes: base.Schemes},
		{Scale: 1.0, Workloads: base.Workloads, Schemes: base.Schemes, InjectionsPerCell: 9},
	}
	for i, s := range diff {
		if s.CacheKey() == base.CacheKey() {
			t.Errorf("spec #%d: key did not change", i)
		}
	}
}

// TestCampaignCells checks grid enumeration and submission-time
// validation through the public API.
func TestCampaignCells(t *testing.T) {
	keys, err := adcc.CampaignCells(nil, adcc.CampaignSpec{Workloads: []string{"mm"}})
	if err != nil {
		t.Fatalf("CampaignCells: %v", err)
	}
	if len(keys) != 12 { // 6 schemes x 2 systems
		t.Fatalf("mm grid has %d cells, want 12: %v", len(keys), keys)
	}
	if keys[0] != "mm/native@NVM-only" {
		t.Errorf("first cell = %q", keys[0])
	}
	if _, err := adcc.CampaignCells(nil, adcc.CampaignSpec{Schemes: []string{"bogus"}}); err == nil {
		t.Error("CampaignCells accepted an unknown scheme")
	}
	if _, err := adcc.CampaignCells(nil, adcc.CampaignSpec{Workloads: []string{"bogus"}}); err == nil {
		t.Error("CampaignCells accepted an unknown workload")
	}
	_, err = adcc.CampaignCells(nil, adcc.CampaignSpec{Workloads: []string{"mc", "bogus"}})
	if err == nil || !strings.Contains(err.Error(), `unknown workload "bogus"`) {
		t.Errorf("CampaignCells with a mixed valid+unknown workload list: %v", err)
	}
}

// TestCampaignResumeOptions drives the checkpoint/resume pair through
// the public Runner: checkpoints from one run, fed back through
// WithCampaignResume, must skip exactly the seeded cells and leave the
// report bytes unchanged.
func TestCampaignResumeOptions(t *testing.T) {
	spec := adcc.CampaignSpec{Scale: 0.02, Workloads: []string{"mm"}, InjectionsPerCell: 2}
	var cells []adcc.CampaignCell
	runner := adcc.New(nil, append(spec.Options(),
		adcc.WithCampaignCheckpoint(func(c adcc.CampaignCell) { cells = append(cells, c) }))...)
	rep, err := runner.RunCampaign(context.Background())
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	want, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(rep.Cells) {
		t.Fatalf("%d checkpoints for %d cells", len(cells), len(rep.Cells))
	}

	completed := map[string]adcc.CampaignCell{}
	for _, c := range cells[:len(cells)/2] {
		completed[c.Key()] = c
	}
	var reran int
	resumed := adcc.New(nil, append(spec.Options(),
		adcc.WithCampaignResume(completed),
		adcc.WithCampaignCheckpoint(func(adcc.CampaignCell) { reran++ }))...)
	rep2, err := resumed.RunCampaign(context.Background())
	if err != nil {
		t.Fatalf("resumed RunCampaign: %v", err)
	}
	got, err := rep2.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed report differs:\n%s\nwant:\n%s", got, want)
	}
	if reran != len(cells)-len(completed) {
		t.Errorf("resume re-executed %d cells, want %d", reran, len(cells)-len(completed))
	}
}
