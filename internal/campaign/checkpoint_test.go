package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// runWithHooks executes cfg collecting every OnCell checkpoint.
func runWithHooks(t *testing.T, cfg Config) (*Report, []CellReport) {
	t.Helper()
	var cells []CellReport
	cfg.OnCell = func(c CellReport) { cells = append(cells, c) }
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep, cells
}

// TestOnCellMatchesReport asserts the checkpoint hook contract: one
// callback per cell, in deterministic grid order, carrying exactly the
// CellReport the final report aggregates.
func TestOnCellMatchesReport(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		cfg := tinyConfig(parallel)
		rep, cells := runWithHooks(t, cfg)
		if len(cells) != len(rep.Cells) {
			t.Fatalf("parallel=%d: %d OnCell calls, want %d", parallel, len(cells), len(rep.Cells))
		}
		keys, err := cfg.CellKeys()
		if err != nil {
			t.Fatalf("CellKeys: %v", err)
		}
		byKey := map[string]CellReport{}
		for _, c := range rep.Cells {
			byKey[c.Key()] = c
		}
		for i, c := range cells {
			if c.Key() != keys[i] {
				t.Errorf("OnCell #%d = %q, want grid order %q", i, c.Key(), keys[i])
			}
			if want := byKey[c.Key()]; c != want {
				t.Errorf("OnCell %s = %+v, want %+v", c.Key(), c, want)
			}
		}
	}
}

// TestResumeFromCheckpoints asserts that a campaign resumed from any
// subset of checkpointed cells — round-tripped through JSON, as a
// service persisting shards would — produces a byte-identical report,
// and that a fully checkpointed campaign does no sweep work at all.
func TestResumeFromCheckpoints(t *testing.T) {
	base := tinyConfig(2)
	full, cells := runWithHooks(t, base)
	want, err := full.EncodeJSON()
	if err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}

	for _, keep := range []int{1, len(cells) / 2, len(cells)} {
		cfg := tinyConfig(2)
		cfg.Completed = map[string]CellReport{}
		for _, c := range cells[:keep] {
			// Round-trip through JSON, like a shard file written by
			// adccd.
			b, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			var back CellReport
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			cfg.Completed[back.Key()] = back
		}
		var fresh []CellReport
		cfg.OnCell = func(c CellReport) { fresh = append(fresh, c) }
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("resume with %d checkpoints: %v", keep, err)
		}
		got, err := rep.EncodeJSON()
		if err != nil {
			t.Fatalf("EncodeJSON: %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("resume with %d checkpoints: report differs from uninterrupted run\ngot:\n%s\nwant:\n%s", keep, got, want)
		}
		if len(fresh) != len(cells)-keep {
			t.Errorf("resume with %d checkpoints: %d cells re-executed, want %d", keep, len(fresh), len(cells)-keep)
		}
	}
}

// TestCellKeys checks grid enumeration order and name validation.
func TestCellKeys(t *testing.T) {
	keys, err := tinyConfig(1).CellKeys()
	if err != nil {
		t.Fatalf("CellKeys: %v", err)
	}
	if len(keys) == 0 {
		t.Fatal("CellKeys returned an empty grid")
	}
	if keys[0] != "mm/native@NVM-only" {
		t.Errorf("first key = %q, want mm/native@NVM-only", keys[0])
	}
	bad := tinyConfig(1)
	bad.Schemes = []string{"no-such-scheme"}
	if _, err := bad.CellKeys(); err == nil {
		t.Error("CellKeys accepted an unknown scheme")
	}
	// A typo beside a valid name must not silently shrink the sweep.
	typo := tinyConfig(1)
	typo.Workloads = []string{"mm", "bogus"}
	want := `campaign: unknown workload "bogus"`
	if _, err := typo.CellKeys(); err == nil || err.Error() != want {
		t.Errorf("CellKeys with a mixed valid+unknown workload list: %v, want %s", err, want)
	}
	if _, err := Run(context.Background(), typo); err == nil || err.Error() != want {
		t.Errorf("Run with a mixed valid+unknown workload list: %v, want %s", err, want)
	}
}

// TestNonFiniteScaleRejected: a NaN or infinite scale once ran a whole
// campaign whose report then failed to encode; Run and CellKeys must
// refuse it up front, naming the value.
func TestNonFiniteScaleRejected(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := tinyConfig(1)
		cfg.Scale = scale
		want := fmt.Sprint(scale)
		if _, err := cfg.CellKeys(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CellKeys(scale=%v) = %v, want an error naming %s", scale, err, want)
		}
		if rep, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run(scale=%v) = %v, %v; want an error naming %s", scale, rep, err, want)
		}
	}
}
