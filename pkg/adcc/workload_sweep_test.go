package adcc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adcc/pkg/adcc"
	"adcc/pkg/adcc/adccclient"
	"adcc/pkg/adcc/adccd"
)

// TestRegisteredWorkloadSweepsEverywhere is the payoff of the one
// workload table: a sixth workload registered only through the public
// API is swept by RunCampaign (byte-identically at any parallelism),
// written to and re-exported from a result store, and served by adccd —
// and its presence moves no built-in cell.
func TestRegisteredWorkloadSweepsEverywhere(t *testing.T) {
	reg := adcc.NewRegistry()
	if err := reg.RegisterWorkload(adcc.WorkloadSpec{
		Name: "toy",
		New: func(adcc.Scheme, float64) (adcc.Workload, error) {
			return &toyWorkload{iters: 40}, nil
		},
	}); err != nil {
		t.Fatalf("RegisterWorkload: %v", err)
	}
	ctx := context.Background()
	spec := adcc.CampaignSpec{Scale: 0.02, Workloads: []string{"toy"}, InjectionsPerCell: 6}
	envelope := func(rep *adcc.CampaignReport) []byte {
		t.Helper()
		b, err := adcc.NewCampaignReport(rep).EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// RunCampaign, serial and parallel, the latter into a store.
	serial, err := adcc.New(reg, append(spec.Options(), adcc.WithParallelism(1))...).RunCampaign(ctx)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	storePath := t.TempDir() + "/toy.adccs"
	parallel, err := adcc.New(reg, append(spec.Options(),
		adcc.WithParallelism(4), adcc.WithCampaignStore(storePath))...).RunCampaign(ctx)
	if err != nil {
		t.Fatalf("RunCampaign -parallel 4: %v", err)
	}
	want := envelope(serial)
	if !bytes.Equal(envelope(parallel), want) {
		t.Error("toy campaign report differs between parallelism 1 and 4")
	}
	// No scheme list: the default campaign grid, six schemes on both
	// platforms, every crash recovered from the persistent pair.
	if len(serial.Cells) != 12 || serial.Injections != 12*6 {
		t.Fatalf("toy grid: %d cells, %d injections, want 12 and 72", len(serial.Cells), serial.Injections)
	}
	for _, c := range serial.Cells {
		if c.Workload != "toy" || c.Corrupt+c.Unrecoverable != 0 || c.Clean+c.Recomputed == 0 {
			t.Errorf("cell %s: %+v", c.Key(), c)
		}
	}

	// Result store: the re-exported envelope is the live one.
	s, err := adcc.OpenResultStore(storePath)
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	rebuilt, err := s.CampaignReport()
	s.Close()
	if err != nil {
		t.Fatalf("CampaignReport: %v", err)
	}
	if !bytes.Equal(envelope(rebuilt), want) {
		t.Error("store re-export differs from the live toy report")
	}

	// adccd over the same registry serves the runner's bytes; a daemon
	// without it rejects the name at submission.
	serve := func(r *adcc.Registry) *adccclient.Client {
		srv, err := adccd.New(adccd.Config{Parallel: 4, Registry: r})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return adccclient.New(ts.URL, nil)
	}
	client := serve(reg)
	info, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info, err = client.Wait(ctx, info.ID, 5*time.Millisecond); err != nil || info.Status != adcc.JobDone {
		t.Fatalf("Wait: %v, job %+v", err, info)
	}
	served, err := client.Report(ctx, info.ID)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if !bytes.Equal(served, want) {
		t.Error("adccd report differs from the runner's toy report")
	}
	if _, err := serve(nil).Submit(ctx, spec); err == nil || !strings.Contains(err.Error(), `unknown workload "toy"`) {
		t.Errorf("built-in daemon accepted the toy spec: %v", err)
	}

	// Unfiltered, the toy cells follow the built-ins' in grid order and
	// the built-in cells keep their bytes.
	all := adcc.CampaignSpec{Scale: 0.02, InjectionsPerCell: 2}
	builtinKeys, err := adcc.CampaignCells(nil, all)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := adcc.CampaignCells(reg, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(builtinKeys)+12 || strings.Join(keys[:len(builtinKeys)], "\n") != strings.Join(builtinKeys, "\n") {
		t.Fatalf("grid with toy = %v, want the %d built-in keys first", keys, len(builtinKeys))
	}
	for _, k := range keys[len(builtinKeys):] {
		if !strings.HasPrefix(k, "toy/") {
			t.Errorf("cell %q after the built-ins is not a toy cell", k)
		}
	}
	cellsJSON := func(r *adcc.Registry) []byte {
		t.Helper()
		rep, err := adcc.New(r, append(all.Options(), adcc.WithParallelism(4))...).RunCampaign(ctx)
		if err != nil {
			t.Fatalf("RunCampaign: %v", err)
		}
		var builtin []adcc.CampaignCell
		for _, c := range rep.Cells {
			if c.Workload != "toy" {
				builtin = append(builtin, c)
			}
		}
		b, err := json.Marshal(builtin)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(cellsJSON(reg), cellsJSON(nil)) {
		t.Error("registering toy changed a built-in cell's report")
	}
}
