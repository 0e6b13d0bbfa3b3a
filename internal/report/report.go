// Package report defines the adcc-report/v1 envelope: one versioned
// JSON shape that wraps every machine-readable artifact the repo emits
// — benchmark suites (adcc-bench/v1) and crash-injection campaign
// reports (adcc-campaign/v1) — so a single decoder handles any file.
//
// The envelope adds exactly two fields (schema and kind) around the
// existing payloads, whose encodings are unchanged: a wrapped campaign
// report is byte-identical to the bare adcc-campaign/v1 document modulo
// the envelope. Bare payloads themselves are not reports: nothing emits
// them un-enveloped, and Decode rejects them like any unknown schema.
package report

import (
	"encoding/json"
	"fmt"
	"os"

	"adcc/internal/bench"
	"adcc/internal/campaign"
)

// SchemaVersion identifies the envelope layout. Consumers refuse files
// with unknown schemas; bump only with a migration note in README.md.
const SchemaVersion = "adcc-report/v1"

// Payload kinds.
const (
	// KindBench marks an envelope carrying a benchmark suite.
	KindBench = "bench"
	// KindCampaign marks an envelope carrying a campaign report.
	KindCampaign = "campaign"
)

// Envelope is the unified report document: a schema tag, the payload
// kind, and exactly one payload field populated.
type Envelope struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	// Bench is the benchmark suite payload (Kind == KindBench).
	Bench *bench.Suite `json:"bench,omitempty"`
	// Campaign is the campaign report payload (Kind == KindCampaign).
	Campaign *campaign.Report `json:"campaign,omitempty"`
}

// WrapBench envelopes a benchmark suite.
func WrapBench(s bench.Suite) Envelope {
	return Envelope{Schema: SchemaVersion, Kind: KindBench, Bench: &s}
}

// WrapCampaign envelopes a campaign report.
func WrapCampaign(r *campaign.Report) Envelope {
	return Envelope{Schema: SchemaVersion, Kind: KindCampaign, Campaign: r}
}

// Validate checks that the envelope carries exactly the payload its
// kind announces.
func (e Envelope) Validate() error {
	if e.Schema != SchemaVersion {
		return fmt.Errorf("report: schema %q, want %q", e.Schema, SchemaVersion)
	}
	switch e.Kind {
	case KindBench:
		if e.Bench == nil {
			return fmt.Errorf("report: kind %q without a bench payload", e.Kind)
		}
	case KindCampaign:
		if e.Campaign == nil {
			return fmt.Errorf("report: kind %q without a campaign payload", e.Kind)
		}
	default:
		return fmt.Errorf("report: unknown kind %q", e.Kind)
	}
	return nil
}

// EncodeJSON renders the envelope in its canonical form: two-space
// indentation, struct field order, trailing newline. Byte-stable for
// equal contents.
func (e Envelope) EncodeJSON() ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the canonical encoding to path.
func (e Envelope) WriteFile(path string) error {
	b, err := e.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Decode parses an adcc-report/v1 envelope, the one machine-readable
// report shape the repo emits.
func Decode(b []byte) (Envelope, error) {
	var tag struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &tag); err != nil {
		return Envelope{}, fmt.Errorf("report: %w", err)
	}
	if tag.Schema != SchemaVersion {
		return Envelope{}, fmt.Errorf("report: unknown schema %q (want %q)", tag.Schema, SchemaVersion)
	}
	var e Envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return Envelope{}, fmt.Errorf("report: %w", err)
	}
	if err := e.Validate(); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

// ReadFile reads and decodes a report file.
func ReadFile(path string) (Envelope, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Envelope{}, err
	}
	e, err := Decode(b)
	if err != nil {
		return Envelope{}, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// BenchSuite returns the benchmark payload, erroring on other kinds.
func (e Envelope) BenchSuite() (bench.Suite, error) {
	if e.Kind != KindBench || e.Bench == nil {
		return bench.Suite{}, fmt.Errorf("report: kind %q is not a bench suite", e.Kind)
	}
	return *e.Bench, nil
}

// CampaignReport returns the campaign payload, erroring on other kinds.
func (e Envelope) CampaignReport() (*campaign.Report, error) {
	if e.Kind != KindCampaign || e.Campaign == nil {
		return nil, fmt.Errorf("report: kind %q is not a campaign report", e.Kind)
	}
	return e.Campaign, nil
}
