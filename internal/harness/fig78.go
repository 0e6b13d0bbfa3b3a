package harness

import (
	"context"
	"fmt"

	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/engine"
)

// MM experiment scaling: the paper uses n = 2000..8000 with an 8 MB LLC
// (blocks of 32..512 MB). The reproduction uses n = 200..800 with a
// 512 KB LLC (blocks 0.32..5.1 MB, 0.6x..10x the LLC), preserving the
// block-to-cache ratio progression that drives Figure 7: at the
// smallest size about two completed panels are still partly cached at
// the crash, at larger sizes only the in-flight panel is lost.
const mmLLCBytes = 512 << 10

// RunFig7 reproduces Figure 7: recomputation cost of the extended ABFT
// multiplication for two crash tests — at the end of the 4th iteration
// of the first loop (submatrix multiplication) and of the second loop
// (submatrix addition) — across four matrix sizes.
func RunFig7(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		Name:  "fig7",
		Title: "ABFT-MM recomputation cost (normalized to one loop iteration)",
		Headers: []string{
			"n", "CrashIn", "UnitsLost", "Detect/unit", "Resume/unit", "Total/unit",
		},
	}
	k := o.scaleInt(40, 8)
	type mmCrashCase struct {
		n, loop int
	}
	var cases []mmCrashCase
	for _, nBase := range []int{200, 400, 600, 800} {
		n := o.scaleInt(nBase, 5*k)
		n = (n / k) * k // keep divisibility
		for _, loop := range []int{1, 2} {
			cases = append(cases, mmCrashCase{n: n, loop: loop})
		}
	}
	label := func(i int) string { return fmt.Sprintf("n=%d/loop%d", cases[i].n, cases[i].loop) }
	err := runRows(ctx, o, t, label, len(cases), func(i int) ([]any, error) {
		c := cases[i]
		o.logf("fig7: n=%d crash in loop %d", c.n, c.loop)
		return fig7One(c.n, k, c.loop)
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("rank k=%d (paper: 400, same n/k ratio); crash at end of 4th iteration of each loop", k)
	t.AddNote("paper: smallest size loses ~2 submatrix multiplications, larger sizes lose 1; additions always lose 1")
	return t, nil
}

func fig7One(n, k, loop int) ([]any, error) {
	m := newMachine(crash.Hetero, mmLLCBytes, 16)
	em := crash.NewEmulator(m)
	mm := core.NewMM(m, em, core.MMOptions{N: n, K: k, Seed: int64(n + loop)})
	trigger, loopName := core.TriggerMMLoop1IterEnd, "loop1 (submat mult)"
	if loop == 2 {
		trigger, loopName = core.TriggerMMLoop2IterEnd, "loop2 (submat add)"
	}
	em.CrashAtTrigger(trigger, 4)
	if !em.Run(mm.Run) {
		return nil, fmt.Errorf("fig7: n=%d loop=%d did not crash", n, loop)
	}

	// The crashed loop's repair plan, the times of its units (panels of
	// loop 1, blocks of loop 2) and what completes a plan.
	rec, unitNS, resume := mm.RecoverLoop1(), mm.PanelNS, mm.ResumeLoop1
	if loop == 2 {
		// Loop 1 completed before the loop-2 crash; repair it first
		// (not charged to the loop-2 recomputation metric).
		mm.ResumeLoop1(rec)
		rec, unitNS, resume = mm.RecoverLoop2(), mm.BlockNS, mm.ResumeLoop2
	}
	avg := avgPositive(unitNS[:4])
	// Units lost = completed units (the first 4) that must be
	// recomputed. Only those are resumed for the recomputation metric;
	// the remaining units are fresh work, not recovery.
	lost := core.MMRecovery{Status: make([]core.BlockStatus, len(rec.Status))}
	unitsLost := 0
	for u := 0; u < 4; u++ {
		lost.Status[u] = rec.Status[u]
		if rec.Status[u] == core.BlockZero || rec.Status[u] == core.BlockRecompute {
			unitsLost++
		}
	}
	start := m.Clock.Now()
	resume(lost)
	resumeNS := m.Clock.Since(start)
	return []any{n, loopName, unitsLost,
		normalize(rec.DetectNS, avg), normalize(resumeNS, avg),
		normalize(rec.DetectNS+resumeNS, avg)}, nil
}

// avgPositive is core.AvgPositiveNS with a floor of 1, so it can serve
// as a normalization denominator even when no unit completed.
func avgPositive(v []int64) int64 {
	if a := core.AvgPositiveNS(v); a > 0 {
		return a
	}
	return 1
}

// RunFig8 reproduces Figure 8 (a,b,c): runtime of ABFT matrix
// multiplication under the seven mechanisms for three rank sizes,
// normalized to native execution on the same system. Checkpoint and
// PMEM act once per submatrix multiplication.
func RunFig8(ctx context.Context, o Options) (*Table, error) {
	t, _, err := runRuntimeTable(ctx, o, fig8(o))
	return t, err
}

// fig8 describes Figure 8's runtime experiment.
func fig8(o Options) runtimeTable {
	// Every rank must divide n, so n is kept a multiple of 40.
	n := o.scaleInt(640, 160) / 40 * 40
	// Ranks scaled from the paper's 200/400/1000 by the same factor
	// as n (8000 -> 640).
	ranks := []int{n / 40, n / 20, n / 8}
	variants := make([]runtimeVariant, len(ranks))
	for i, k := range ranks {
		opts := core.MMOptions{N: n, K: k, Seed: int64(k)}
		variants[i] = runtimeVariant{
			label: fmt.Sprintf("k=%d", k),
			lead:  []any{k},
			new:   func(sc engine.Scheme) engine.Workload { return core.NewMMWorkload(opts, sc, nil) },
		}
	}
	return runtimeTable{
		name:        "fig8",
		title:       "ABFT-MM runtime, seven mechanisms x rank (normalized to native)",
		shape:       fmt.Sprintf("n=%d ranks=%v", n, ranks),
		machine:     func(kind crash.SystemKind) *crash.Machine { return newMachine(kind, mmLLCBytes, 16) },
		cases:       engine.SevenCases(),
		variants:    variants,
		leadHeaders: []string{"Rank"},
		notes: []string{
			"paper: algo <= 1.082 at rank 200, 1.013 at rank 1000; ckpt-NVM/DRAM >= 1.218 at rank 200",
			"ranks scaled with n from the paper's 200/400/1000 at n=8000",
		},
	}
}

// RunMMKAblation quantifies the memory-vs-recomputation tradeoff of the
// rank choice discussed in §III-C: smaller k means more temporal
// matrices (more NVM consumption) but a smaller recomputation unit.
func RunMMKAblation(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		Name:  "mm-k",
		Title: "Rank k tradeoff: temporal-matrix memory vs recomputation unit",
		Headers: []string{
			"k", "Panels", "TempMem(MB)", "PanelTime(ms)", "TotalFlushLines",
		},
	}
	n := o.scaleInt(400, 80)
	var ks []int
	for _, div := range []int{40, 20, 10, 5, 2} {
		if k := n / div; k >= 1 {
			ks = append(ks, k)
		}
	}
	label := func(i int) string { return fmt.Sprintf("k=%d", ks[i]) }
	err := runRows(ctx, o, t, label, len(ks), func(i int) ([]any, error) {
		k := ks[i]
		opts := core.MMOptions{N: (n / k) * k, K: k, Seed: 9}
		m := newMachine(crash.NVMOnly, mmLLCBytes, 16)
		mm := core.NewMM(m, nil, opts)
		mm.RunLoop1(0)
		tempMB := float64(opts.N/k) * float64((opts.N+1)*(opts.N+1)*8) / (1 << 20)
		avg := avgPositive(mm.PanelNS)
		// Checksum flushes per panel (one row + one column of lines),
		// paid once per panel — so total flush work grows as 1/k.
		perPanel := (opts.N+1+7)/8 + opts.N + 1
		return []any{k, opts.N / k, fmt.Sprintf("%.1f", tempMB),
			fmt.Sprintf("%.2f", float64(avg)/1e6), perPanel * (opts.N / k)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("smaller k: more temporal matrices (memory) and more frequent flushes; larger k: bigger recompute unit")
	return t, nil
}
