package report

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"adcc/internal/bench"
	"adcc/internal/campaign"
)

func sampleSuite() bench.Suite {
	return bench.NewSuite(0.5, []bench.Result{
		{Name: "k/a", SimNS: 100, SimFlushes: 4},
		{Name: "k/b", SimNS: 200},
	})
}

func sampleCampaign() *campaign.Report {
	return &campaign.Report{
		Schema: campaign.SchemaVersion, Scale: 0.1, Seed: 7, Injections: 3,
		Cells: []campaign.CellReport{{
			Workload: "mc", Scheme: "algo-NVM-only", System: "NVM-only",
			Injections: 3, Clean: 3, RecoveryRate: 1, ProfileOps: 10, GrainOps: 2,
		}},
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.json")
	if err := WrapBench(sampleSuite()).WriteFile(benchPath); err != nil {
		t.Fatalf("WriteFile(bench): %v", err)
	}
	e, err := ReadFile(benchPath)
	if err != nil {
		t.Fatalf("ReadFile(bench): %v", err)
	}
	s, err := e.BenchSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 2 || s.Scale != 0.5 {
		t.Fatalf("bench payload lost data: %+v", s)
	}
	if _, err := e.CampaignReport(); err == nil {
		t.Fatal("CampaignReport on a bench envelope returned nil error")
	}

	campPath := filepath.Join(dir, "campaign.json")
	if err := WrapCampaign(sampleCampaign()).WriteFile(campPath); err != nil {
		t.Fatalf("WriteFile(campaign): %v", err)
	}
	e, err = ReadFile(campPath)
	if err != nil {
		t.Fatalf("ReadFile(campaign): %v", err)
	}
	rep, err := e.CampaignReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injections != 3 || len(rep.Cells) != 1 {
		t.Fatalf("campaign payload lost data: %+v", rep)
	}
}

// TestDecodeLegacyPayloads asserts the one-shape contract: bare
// adcc-bench/v1 and adcc-campaign/v1 documents — pre-envelope payloads
// nothing emits any more — are rejected as unknown schemas, like any
// other tag.
func TestDecodeLegacyPayloads(t *testing.T) {
	rawBench, err := sampleSuite().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	rawCamp, err := sampleCampaign().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"bare bench":     rawBench,
		"bare campaign":  rawCamp,
		"unknown schema": []byte(`{"schema":"bogus/v9"}`),
	} {
		if _, err := Decode(raw); err == nil || !strings.Contains(err.Error(), "unknown schema") {
			t.Errorf("Decode(%s) = %v, want an unknown-schema error", name, err)
		}
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("Decode accepted malformed JSON")
	}
}

// TestEnvelopePreservesPayloadBytes pins the acceptance contract of the
// API redesign: the campaign payload inside the envelope is
// byte-identical to the bare adcc-campaign/v1 encoding modulo the
// envelope's indentation.
func TestEnvelopePreservesPayloadBytes(t *testing.T) {
	rep := sampleCampaign()
	bare, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := WrapCampaign(rep).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Re-indenting the bare payload one level must reproduce the
	// envelope's campaign field exactly.
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSpace(bare), "  ", "  "); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wrapped), buf.String()) {
		t.Fatalf("envelope does not embed the bare payload byte-for-byte:\nenvelope:\n%s\npayload:\n%s",
			wrapped, buf.String())
	}
}

func TestValidateRejectsMismatches(t *testing.T) {
	bad := []Envelope{
		{Schema: "x", Kind: KindBench},
		{Schema: SchemaVersion, Kind: KindBench},
		{Schema: SchemaVersion, Kind: KindCampaign},
		{Schema: SchemaVersion, Kind: "other"},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, e)
		}
	}
}
