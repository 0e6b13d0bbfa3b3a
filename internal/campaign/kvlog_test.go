package campaign

import (
	"context"
	"testing"
)

// kvlogConfig is a CI-sized kvlog-only campaign.
func kvlogConfig(parallel int, seed int64) Config {
	return Config{
		Scale:     0.02,
		Seed:      seed,
		Parallel:  parallel,
		PerCell:   6,
		Workloads: []string{"kvlog"},
	}
}

// TestKVLogGridOutcomes asserts the acceptance contract of the
// served-traffic KV family: the algorithm-directed log-replay scheme
// recovers from every injected fail-stop crash point, while the naive
// index-only design (mark flushed, records not) silently corrupts the
// served state — the Figure 10 bias on the new workload class.
func TestKVLogGridOutcomes(t *testing.T) {
	rep, err := Run(context.Background(), kvlogConfig(4, 0))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 8 schemes x 2 systems.
	if len(rep.Cells) != 16 {
		t.Fatalf("kvlog grid has %d cells, want 16", len(rep.Cells))
	}
	naiveCorrupt := 0
	for _, c := range rep.Cells {
		if c.Workload != "kvlog" {
			t.Fatalf("unexpected workload %q in kvlog-only sweep", c.Workload)
		}
		if got := c.Clean + c.Recomputed + c.Corrupt + c.Unrecoverable + c.NoCrash; got != c.Injections {
			t.Errorf("%s/%s@%s: outcomes sum to %d, want %d", c.Workload, c.Scheme, c.System, got, c.Injections)
		}
		switch c.Scheme {
		case "algo-NVM-only", "algo-every-iter":
			if c.Failures() != 0 {
				t.Errorf("%s@%s: %d failures, want 0 (log replay must rebuild the index everywhere)",
					c.Scheme, c.System, c.Failures())
			}
		case "algo-naive":
			naiveCorrupt += c.Corrupt
		default:
			// Conventional mechanisms must also recover: checkpoints
			// restore index+log+mark together, PMEM rolls the torn
			// request back, native replays the stream from scratch.
			if c.Unrecoverable != 0 || c.Corrupt != 0 {
				t.Errorf("%s@%s: %d corrupt, %d unrecoverable, want 0",
					c.Scheme, c.System, c.Corrupt, c.Unrecoverable)
			}
		}
	}
	if naiveCorrupt == 0 {
		t.Error("algo-naive produced no silent corruption; the bias canary is gone")
	}
}

// TestKVLogReplayDifferential holds the engine to the oracle on a
// denser kvlog sample (six points per cell, another seed) than the
// full-grid differential draws.
func TestKVLogReplayDifferential(t *testing.T) {
	requireEngineMatchesOracle(t, kvlogConfig(0, 9))
}

// TestKVLogFaultModels sweeps the kvlog grid under a non-fail-stop
// fault model: the engine must match the oracle, and the full
// log-replay protocol must never serve corruption silently (torn or
// dropped log bytes surface as detected Unrecoverable, not Corrupt).
func TestKVLogFaultModels(t *testing.T) {
	cfg := kvlogConfig(0, 5)
	cfg.FaultModels = []string{"failstop", "torn"}
	legacy := requireEngineMatchesOracle(t, cfg)
	for _, c := range legacy.Cells {
		if c.Scheme == "algo-NVM-only" && c.Corrupt != 0 {
			t.Errorf("%s@%s fault=%q: %d silent corruptions; the full protocol must detect, not serve",
				c.Scheme, c.System, c.FaultModel, c.Corrupt)
		}
	}
}
