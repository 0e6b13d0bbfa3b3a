package campaign

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mem"
)

// TestFailStopDifferential: the fault-model plumbing must not move a
// single byte of a clean fail-stop campaign. An explicit ["failstop"]
// config and a nil one encode identically at any worker-pool width.
func TestFailStopDifferential(t *testing.T) {
	base := tinyConfig(1)
	want, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	wantB, err := want.EncodeJSON()
	if err != nil {
		t.Fatalf("encode baseline: %v", err)
	}
	for _, parallel := range []int{1, 8} {
		cfg := tinyConfig(parallel)
		cfg.FaultModels = []string{"failstop"}
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("explicit failstop (parallel=%d): %v", parallel, err)
		}
		got, err := rep.EncodeJSON()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if string(got) != string(wantB) {
			t.Errorf("explicit failstop report (parallel=%d) differs from the nil-config baseline:\nbase:\n%s\ngot:\n%s",
				parallel, wantB, got)
		}
	}
}

// TestFaultModelsValidated: an unknown fault-model name is rejected up
// front, before any cell runs.
func TestFaultModelsValidated(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.FaultModels = []string{"torn", "half-line"}
	if _, err := Run(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "unknown fault model") {
		t.Fatalf("Run = %v, want unknown-fault-model error", err)
	}
	if _, err := cfg.CellKeys(); err == nil {
		t.Fatal("CellKeys accepted an unknown fault model")
	}
}

// TestFaultGridShape: each named model multiplies the grid, fail-stop
// cells keep their legacy keys, and duplicate names collapse.
func TestFaultGridShape(t *testing.T) {
	plain := tinyConfig(1)
	base, err := plain.CellKeys()
	if err != nil {
		t.Fatalf("CellKeys: %v", err)
	}
	cfg := tinyConfig(1)
	cfg.FaultModels = []string{"failstop", "torn", "torn", ""}
	keys, err := cfg.CellKeys()
	if err != nil {
		t.Fatalf("CellKeys: %v", err)
	}
	if len(keys) != 2*len(base) {
		t.Fatalf("grid has %d cells, want %d (x2 models over %d)", len(keys), 2*len(base), len(base))
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	for _, k := range base {
		if !seen[k] {
			t.Errorf("legacy cell key %q missing from fault grid", k)
		}
		if !seen[k+"+torn"] {
			t.Errorf("torn cell key %q+torn missing from fault grid", k)
		}
	}
}

// TestFaultReplayDifferential is the engine's contract over the whole
// grid: every workload x scheme x system x fault model. The
// snapshot/fork engine must reproduce the from-scratch oracle byte for
// byte — report and RowSink sequence — at any worker-pool width.
func TestFaultReplayDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid differential campaign in -short mode")
	}
	legacy := requireEngineMatchesOracle(t, Config{
		Scale:       0.02,
		PerCell:     3,
		FaultModels: []string{"failstop", "torn", "eadr", "reorder", "bitflip"},
	})

	// The models must actually bite: fail-stop mc/native recovers every
	// injection (the paper's restart baseline), and the torn-writeback
	// model must break that — silent corruption from a half-persisted
	// line the restart trusts.
	cells := make(map[string]CellReport, len(legacy.Cells))
	for _, c := range legacy.Cells {
		cells[c.Key()] = c
	}
	clean, ok := cells["mc/native@NVM-only"]
	if !ok {
		t.Fatal("mc/native@NVM-only cell missing")
	}
	if clean.RecoveryRate != 1 {
		t.Fatalf("fail-stop mc/native recovery = %v, want 1 (baseline drifted; pick another canary)", clean.RecoveryRate)
	}
	torn, ok := cells["mc/native@NVM-only+torn"]
	if !ok {
		t.Fatal("mc/native@NVM-only+torn cell missing")
	}
	if torn.Corrupt == 0 || torn.RecoveryRate >= 1 {
		t.Errorf("torn mc/native: corrupt=%d recovery=%v, want corruption below 100%%",
			torn.Corrupt, torn.RecoveryRate)
	}
	// Outcome accounting holds on fault cells exactly as on legacy ones.
	for _, c := range legacy.Cells {
		if got := c.Clean + c.Recomputed + c.Corrupt + c.Unrecoverable + c.NoCrash; got != c.Injections {
			t.Errorf("%s: outcomes sum to %d, want %d", c.Key(), got, c.Injections)
		}
	}
}

// TestCorruptRowPtrClassifiesUnrecoverable: a bit flipped in the
// persistent CSR row pointers makes the resumed SpMV ask for a range of
// 2^37 elements. That must panic at once and classify as unrecoverable;
// it once billed the simulated load for the whole range first, and the
// cg x bitflip campaign did not finish in ten minutes.
func TestCorruptRowPtrClassifiesUnrecoverable(t *testing.T) {
	start := time.Now()
	rep := requireEngineMatchesOracle(t, Config{
		Scale: 0.1, Workloads: []string{"cg"}, FaultModels: []string{"bitflip"},
	})
	// A regression does not return at all (the test binary's -timeout
	// reports it); this bound catches a partial one.
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("cg x bitflip campaign took %v on engine and oracle, want well under 30 s", took)
	}
	unrecoverable := 0
	for _, c := range rep.Cells {
		if got := c.Clean + c.Recomputed + c.Corrupt + c.Unrecoverable + c.NoCrash; got != c.Injections {
			t.Errorf("%s: outcomes sum to %d, want %d", c.Key(), got, c.Injections)
		}
		unrecoverable += c.Unrecoverable
	}
	if unrecoverable == 0 {
		t.Error("no cg x bitflip injection was unrecoverable; the corrupted-RowPtr canary is gone")
	}
}

// TestCorruptLogHeadClassifiesUnrecoverable: the undo log's entry count
// is read from the persistent image, and a bit flip can make it
// anything. A head word of 1<<40 must classify as unrecoverable — it
// once sized an allocation that killed the process with an
// out-of-memory error no recover() can catch — and so must a negative
// one, both without allocating to match.
func TestCorruptLogHeadClassifiesUnrecoverable(t *testing.T) {
	cfg := Config{Scale: 0.05, Workloads: []string{"kvlog"}, Schemes: []string{engine.SchemePMEM}}
	cells, err := cfg.cells()
	if err != nil {
		t.Fatalf("cells: %v", err)
	}
	cl := cells[0]
	p := plan{Cell: cl, Shared: cl.Family.SharedAt(cfg.scale())}
	m := crash.NewMachine(cl.machineConfig())
	em := crash.NewEmulator(m)
	w, err := p.prepared(cfg, m, em)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	p.Profile = em.Profile(func() { w.Run(w.Start()) })

	var head mem.Region
	for _, r := range m.Heap.Regions() {
		if r.Name() == "pmem.log.head" {
			head = r
		}
	}
	if head == nil {
		t.Fatal("the pmem cell has no undo-log head region")
	}
	st := m.CrashSnapshot(nil)
	f := newForker(cfg, p, crash.NewMachine(p.Cell.machineConfig()))
	for _, n := range []uint64{1 << 40, 1 << 63} {
		st.Overlay = []crash.FaultWrite{{Addr: head.Base(), Word: n}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := f.run(st)
		runtime.ReadMemStats(&after)
		if !res.recoverErr {
			t.Fatalf("head word %#x: recovery did not fail: %+v", n, res)
		}
		if got := expandInjection(res, 1, p).Outcome; got != OutcomeUnrecoverable {
			t.Errorf("head word %#x classified %v, want %v", n, got, OutcomeUnrecoverable)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 8<<20 {
			t.Errorf("head word %#x: recovery allocated %d MB", n, grown>>20)
		}
	}
}
