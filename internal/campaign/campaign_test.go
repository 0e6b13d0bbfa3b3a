package campaign

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyConfig is a CI-sized campaign: one workload, a few schemes, a
// handful of points per cell.
func tinyConfig(parallel int) Config {
	return Config{
		Scale:     0.02,
		Parallel:  parallel,
		PerCell:   3,
		Workloads: []string{"mm"},
	}
}

// TestShardCountInvariance asserts the tentpole determinism contract:
// the encoded report is byte-identical for any worker-pool width.
func TestShardCountInvariance(t *testing.T) {
	var encodings [][]byte
	for _, parallel := range []int{1, 4, 13} {
		rep, err := Run(context.Background(), tinyConfig(parallel))
		if err != nil {
			t.Fatalf("Run(parallel=%d): %v", parallel, err)
		}
		b, err := rep.EncodeJSON()
		if err != nil {
			t.Fatalf("EncodeJSON: %v", err)
		}
		encodings = append(encodings, b)
	}
	for i := 1; i < len(encodings); i++ {
		if string(encodings[i]) != string(encodings[0]) {
			t.Fatalf("report for worker count #%d differs from serial run:\nserial:\n%s\nparallel:\n%s",
				i, encodings[0], encodings[i])
		}
	}
}

// TestGoldenReport pins the full report encoding of a tiny campaign.
// Any drift — classification changes, cost-model changes, JSON layout
// changes — must be reviewed and the golden regenerated with -update.
func TestGoldenReport(t *testing.T) {
	rep, err := Run(context.Background(), tinyConfig(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got, err := rep.EncodeJSON()
	if err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("campaign report drifted from golden file.\nIf intentional, regenerate with: go test ./internal/campaign -run TestGoldenReport -update\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReportRoundTrip checks WriteFile/ReadFile preserve the report and
// reject mismatched schemas.
func TestReportRoundTrip(t *testing.T) {
	rep, err := Run(context.Background(), tinyConfig(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if back.Injections != rep.Injections || len(back.Cells) != len(rep.Cells) {
		t.Fatalf("round trip lost data: %d/%d injections, %d/%d cells",
			back.Injections, rep.Injections, len(back.Cells), len(rep.Cells))
	}
	if err := os.WriteFile(path, []byte(`{"schema":"bogus/v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted a mismatched schema")
	}
}

// TestOutcomeAccounting asserts per-cell bookkeeping invariants: the
// outcome counts sum to the injections, rates stay in [0, 1], and every
// swept cell carries a usable crash-point space.
func TestOutcomeAccounting(t *testing.T) {
	cfg := Config{Scale: 0.02, Parallel: 4, PerCell: 3, Workloads: []string{"mc"}}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Schema != SchemaVersion {
		t.Errorf("schema = %q, want %q", rep.Schema, SchemaVersion)
	}
	total := 0
	for _, c := range rep.Cells {
		if got := c.Clean + c.Recomputed + c.Corrupt + c.Unrecoverable + c.NoCrash; got != c.Injections {
			t.Errorf("%s/%s@%s: outcomes sum to %d, want %d", c.Workload, c.Scheme, c.System, got, c.Injections)
		}
		if c.RecoveryRate < 0 || c.RecoveryRate > 1 {
			t.Errorf("%s/%s@%s: recovery rate %v out of range", c.Workload, c.Scheme, c.System, c.RecoveryRate)
		}
		if c.ProfileOps <= 0 || c.GrainOps <= 0 {
			t.Errorf("%s/%s@%s: profile ops %d, grain %d", c.Workload, c.Scheme, c.System, c.ProfileOps, c.GrainOps)
		}
		total += c.Injections
	}
	if total != rep.Injections {
		t.Errorf("total injections %d, want %d", rep.Injections, total)
	}
	// The paper's selective-flush MC scheme must survive every point;
	// the rejected index-only variant must corrupt at least once (the
	// Figure 10 bias is the campaign's canary).
	for _, c := range rep.Cells {
		switch c.Scheme {
		case "algo-NVM-only", "algo-NVM/DRAM", "algo-every-iter":
			if c.Failures() != 0 {
				t.Errorf("%s/%s@%s: %d failures, want 0", c.Workload, c.Scheme, c.System, c.Failures())
			}
		}
	}
}

// TestBenchResults checks the benchdiff bridge: one row per cell plus a
// roll-up, failures folded into the gated metric.
func TestBenchResults(t *testing.T) {
	rep := &Report{
		Schema: SchemaVersion,
		Cells: []CellReport{
			{Workload: "mc", Scheme: "native", System: "NVM-only",
				Injections: 5, Corrupt: 2, RecoverSimNS: 10, ResumeSimNS: 20, FlushLines: 3},
			{Workload: "mc", Scheme: "algo-NVM-only", System: "NVM-only",
				Injections: 5, Clean: 5, RecoverSimNS: 1, ResumeSimNS: 2},
		},
	}
	rs := rep.BenchResults()
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
	if rs[0].Name != "campaign/mc/native@NVM-only" || rs[0].Failures != 2 || rs[0].SimNS != 30 {
		t.Errorf("cell row = %+v", rs[0])
	}
	total := rs[2]
	if total.Name != "campaign/total" || total.Injections != 10 || total.Failures != 2 || total.SimNS != 33 {
		t.Errorf("total row = %+v", total)
	}
}

// flipCtx is a context whose Err turns to context.Canceled once it has
// been polled more than `after` times — cancellation at an exact point
// of a serial campaign, with no timing involved.
type flipCtx struct {
	context.Context
	polls, after int
}

func (c *flipCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelBetweenForks: a cancelled context is noticed inside a cell,
// between recovery forks — not only between cells. A one-cell campaign
// whose every crash point is its own class (torn writebacks defeat the
// version fast path) polls the context once per fork; cancelling midway
// must return context.Canceled and no report on the very next poll.
func TestCancelBetweenForks(t *testing.T) {
	cfg := Config{
		Scale: 0.02, PerCell: 12,
		Workloads: []string{"mm"}, Schemes: []string{"native"}, FaultModels: []string{"torn"},
	}
	if keys, err := cfg.CellKeys(); err != nil || len(keys) != 2 {
		t.Fatalf("CellKeys = %v, %v; want the two systems of one scheme", keys, err)
	}
	full := &flipCtx{Context: context.Background(), after: 1 << 30}
	if _, err := Run(full, cfg); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	// Two cells poll at least PerCell times in their fork loops, beside
	// the executor's per-cell dispatch polls.
	if full.polls < 2*8 {
		t.Fatalf("a full run polled the context %d times; the fork loop is not polling", full.polls)
	}
	// Three quarters through is inside the second cell's fork loop.
	cut := &flipCtx{Context: context.Background(), after: full.polls * 3 / 4}
	rep, err := Run(cut, cfg)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("cancelled run = %v, %v; want no report and context.Canceled", rep, err)
	}
	if got := cut.polls - cut.after; got > 2 {
		t.Errorf("campaign polled %d more times after cancellation, want a return within one fork", got)
	}
}
