package adcc

import (
	"adcc/internal/bench"
	"adcc/internal/campaign"
	"adcc/internal/report"
)

// Report is the adcc-report/v1 envelope: one versioned JSON shape
// wrapping every machine-readable artifact the system emits — bench
// suites and campaign reports — so a single decoder (ReadReport /
// DecodeReport) handles any file.
type Report = report.Envelope

// ReportSchemaVersion identifies the envelope layout.
const ReportSchemaVersion = report.SchemaVersion

// Report payload kinds.
const (
	// ReportKindBench marks a benchmark-suite report.
	ReportKindBench = report.KindBench
	// ReportKindCampaign marks a campaign report.
	ReportKindCampaign = report.KindCampaign
)

// NewBenchReport envelopes a benchmark suite.
func NewBenchReport(s Suite) Report { return report.WrapBench(s) }

// NewCampaignReport envelopes a campaign report.
func NewCampaignReport(r *CampaignReport) Report { return report.WrapCampaign(r) }

// ReadReport reads and decodes a report file. Anything but an
// adcc-report/v1 envelope — a bare pre-envelope payload included — is
// an unknown-schema error.
func ReadReport(path string) (Report, error) { return report.ReadFile(path) }

// DecodeReport decodes report bytes; see ReadReport.
func DecodeReport(b []byte) (Report, error) { return report.Decode(b) }

// CampaignReport is a full crash-injection campaign run: the sweep
// coordinates and one aggregated CampaignCell per workload x scheme x
// platform combination. All fields are deterministic functions of the
// code, scale, and seed.
type CampaignReport = campaign.Report

// CampaignCell aggregates every injection of one campaign cell.
type CampaignCell = campaign.CellReport

// CampaignSchemaVersion identifies the campaign payload layout.
const CampaignSchemaVersion = campaign.SchemaVersion

// Benchmark data model (the perf pipeline behind `adccbench -bench`
// and benchdiff).
type (
	// Result is one named measurement: deterministic simulated metrics
	// only, no host wall-clock number.
	Result = bench.Result
	// Suite is a full benchmark run with a canonical JSON encoding.
	Suite = bench.Suite
	// Collector accumulates Results from concurrently executing cases;
	// pass one to a Runner with WithCollector.
	Collector = bench.Collector
	// DiffOptions configures a suite comparison.
	DiffOptions = bench.DiffOptions
	// DiffReport is the outcome of a suite comparison.
	DiffReport = bench.Report
)

// BenchSchemaVersion identifies the bench payload layout.
const BenchSchemaVersion = bench.SchemaVersion

// NewCollector returns an empty benchmark collector.
func NewCollector() *Collector { return bench.NewCollector() }

// NewSuite assembles a schema-tagged suite with the results sorted by
// name.
func NewSuite(scale float64, results []Result) Suite {
	return bench.NewSuite(scale, results)
}

// RunKernels runs the kernel suite's deterministic probes (simulated
// time and flush count of a fixed number of ops per kernel).
func RunKernels() []Result { return bench.RunKernels() }

// DiffSuites compares a candidate suite against a baseline (see the
// perf-regression policy in README.md).
func DiffSuites(base, candidate Suite, o DiffOptions) DiffReport {
	return bench.Diff(base, candidate, o)
}
