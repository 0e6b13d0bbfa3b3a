package report

import (
	"encoding/json"
	"testing"

	"adcc/internal/bench"
	"adcc/internal/campaign"
)

// FuzzDecodeReport throws malformed report documents at the unified
// decoder: enveloped payloads, bare pre-envelope payloads (which must be
// rejected), truncated JSON, duplicated fields, kind/payload mismatches,
// deep nesting. The decoder
// must never panic, and anything it accepts must validate and survive a
// canonical re-encode/decode round trip.
func FuzzDecodeReport(f *testing.F) {
	// One well-formed envelope per kind, and one bare document per kind
	// as must-reject seeds.
	benchEnv, err := WrapBench(bench.NewSuite(0.5, []bench.Result{
		{Name: "cache/flush", SimNS: 100, SimFlushes: 3},
	})).EncodeJSON()
	if err != nil {
		f.Fatal(err)
	}
	campEnv, err := WrapCampaign(&campaign.Report{
		Schema: campaign.SchemaVersion, Scale: 1, Injections: 2,
		Cells: []campaign.CellReport{{Workload: "cg", Scheme: "native", System: "NVM-only", Injections: 2, Clean: 2}},
	}).EncodeJSON()
	if err != nil {
		f.Fatal(err)
	}
	bareBench, err := json.Marshal(bench.NewSuite(1, nil))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(benchEnv)
	f.Add(campEnv)
	f.Add(bareBench)
	f.Add([]byte(`{"schema":"adcc-campaign/v1","cells":[{"workload":"mm"}]}`))
	// Malformed seeds: truncation, duplicated fields, kind/payload
	// mismatches, wrong types, junk.
	f.Add(benchEnv[:len(benchEnv)/2])
	f.Add([]byte(`{"schema":"adcc-report/v1","schema":"adcc-bench/v1","kind":"bench"}`))
	f.Add([]byte(`{"schema":"adcc-report/v1","kind":"campaign","bench":{"schema":"adcc-bench/v1"}}`))
	f.Add([]byte(`{"schema":"adcc-report/v1","kind":"bench","bench":{"results":"nope"}}`))
	f.Add([]byte(`{"schema":["adcc-report/v1"]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"schema":"adcc-bench/v1","results":[{"name":"x","sim_ns":-9}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		// Only the envelope is a report: the bare-bench and bare-campaign
		// corpus entries (and anything else tagged otherwise) must have
		// been rejected above.
		var tag struct {
			Schema string `json:"schema"`
		}
		if json.Unmarshal(data, &tag) != nil || tag.Schema != SchemaVersion {
			t.Fatalf("Decode accepted a document tagged %q\ninput: %q", tag.Schema, data)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("Decode accepted an envelope that fails Validate: %v\ninput: %q", err, data)
		}
		out, err := e.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v\ninput: %q", err, data)
		}
		back, err := Decode(out)
		if err != nil {
			t.Fatalf("canonical encoding does not re-decode: %v\nencoded: %s", err, out)
		}
		if back.Kind != e.Kind {
			t.Fatalf("round trip changed kind: %q -> %q", e.Kind, back.Kind)
		}
		out2, err := back.EncodeJSON()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if string(out) != string(out2) {
			t.Fatalf("canonical encoding not a fixed point:\nfirst:\n%s\nsecond:\n%s", out, out2)
		}
	})
}
