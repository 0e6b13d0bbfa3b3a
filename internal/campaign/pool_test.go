package campaign

import (
	"context"
	"errors"
	"testing"
)

// pooled returns how many machines the pool holds.
func pooled() int {
	machines.mu.Lock()
	defer machines.mu.Unlock()
	return len(machines.free)
}

// TestPooledMachinesMatchOracle: the engine runs on pooled machines
// that earlier cells used under another family and fault model, and
// each cell's forks run on its recording machine, Reset dirty — its
// regions, carriers, tiered ranges, warm LLC and page tier. After a
// bitflip and eADR kvlog campaign has filled the pool, every family x
// scheme x system under fail-stop, torn and eADR must still produce, at
// Parallel 1 and 8, the bytes of the from-scratch oracle, which builds
// every machine new.
func TestPooledMachinesMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid differential campaign in -short mode")
	}
	if _, err := Run(context.Background(), Config{
		Scale: 0.02, PerCell: 3, Parallel: 8,
		Workloads: []string{"kvlog"}, FaultModels: []string{"eadr", "bitflip"},
	}); err != nil {
		t.Fatalf("dirtying run: %v", err)
	}
	if pooled() == 0 {
		t.Fatal("the campaign released no machine to the pool")
	}
	requireEngineMatchesOracle(t, Config{
		Scale: 0.02, PerCell: 3,
		FaultModels: []string{"failstop", "torn", "eadr"},
	})
}

// TestIdleMachinesHoldNoWorkload: a machine in the pool holds no
// regions and no carriers of the cell that ran on it.
func TestIdleMachinesHoldNoWorkload(t *testing.T) {
	if _, err := Run(context.Background(), Config{
		Scale: 0.02, PerCell: 2, Parallel: 2, Workloads: []string{"kvlog", "cg"},
	}); err != nil {
		t.Fatal(err)
	}
	machines.mu.Lock()
	defer machines.mu.Unlock()
	if len(machines.free) == 0 {
		t.Fatal("the campaign released no machine to the pool")
	}
	for _, m := range machines.free {
		if n, a := len(m.Heap.Regions()), len(m.Aux()); n != 0 || a != 0 {
			t.Errorf("an idle machine holds %d regions and %d carriers", n, a)
		}
	}
}

// TestCancelledCellsReleaseMachines: a campaign cancelled inside a
// cell's fork loop still gives its machine back.
func TestCancelledCellsReleaseMachines(t *testing.T) {
	cfg := Config{
		Scale: 0.02, PerCell: 12, Parallel: 1,
		Workloads: []string{"mm"}, Schemes: []string{"native"}, FaultModels: []string{"torn"},
	}
	full := &flipCtx{Context: context.Background(), after: 1 << 30}
	if _, err := Run(full, cfg); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	before := pooled()
	if before == 0 {
		t.Fatal("the campaign released no machine to the pool")
	}
	cut := &flipCtx{Context: context.Background(), after: full.polls * 3 / 4}
	if _, err := Run(cut, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v, want context.Canceled", err)
	}
	if got := pooled(); got != before {
		t.Errorf("pool holds %d machines after a cancelled run, %d before it", got, before)
	}
}
