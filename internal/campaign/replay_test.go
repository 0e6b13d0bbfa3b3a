package campaign

import (
	"context"
	"slices"
	"testing"

	"adcc/internal/bench"
	"adcc/internal/crash"
	"adcc/internal/engine"
)

// TestReplayWallMetrics asserts the engine carries no host measurement
// into the perf ledger: the bench rows of two runs of one campaign are
// equal field for field.
func TestReplayWallMetrics(t *testing.T) {
	var runs [2][]bench.Result
	for i := range runs {
		rep, err := Run(context.Background(), tinyConfig(2))
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		runs[i] = rep.BenchResults()
	}
	if !slices.Equal(runs[0], runs[1]) {
		t.Errorf("bench rows differ between two runs of one campaign:\n%+v\n%+v", runs[0], runs[1])
	}
}

// BenchmarkSnapshotFork measures the fork primitive the engine is
// built on: capture a copy-on-write post-crash snapshot of a mid-run
// machine, then restore it onto a reused fork machine and run full
// recovery/resume/verify.
func BenchmarkSnapshotFork(b *testing.B) {
	cfg := Config{Scale: 0.02, Workloads: []string{"mm"}}
	cells, err := cfg.cells()
	if err != nil {
		b.Fatalf("cells: %v", err)
	}
	cl := cells[0]
	benchPlan = plan{Cell: cl, Shared: cl.Family.SharedAt(cfg.scale())}
	prepared := func() (*crash.Machine, *crash.Emulator, engine.Workload) {
		m := cl.newMachine()
		em := crash.NewEmulator(m)
		w, err := benchPlan.prepared(cfg, m, em)
		if err != nil {
			b.Fatalf("prepare: %v", err)
		}
		return m, em, w
	}

	// Profile on one machine, then record a mid-run snapshot on a fresh
	// one, exactly as the engine does.
	_, em, w := prepared()
	benchPlan.Profile = em.Profile(func() { w.Run(w.Start()) })
	m, em, w := prepared()
	var st *crash.CrashState
	em.Record(func() { w.Run(w.Start()) },
		[]crash.CrashPoint{{Op: benchPlan.Profile.Ops / 2}},
		func(int) { st = m.CrashSnapshot(st) })
	if st == nil {
		b.Fatal("recording run captured no snapshot")
	}

	f := newForker(cfg, benchPlan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := f.run(st)
		if res.prepErr || res.recoverErr || res.resumeErr || res.verifyFail {
			b.Fatalf("fork failed: %+v", res)
		}
	}
}

var benchPlan plan
