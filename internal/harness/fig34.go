package harness

import (
	"context"
	"fmt"

	"adcc/internal/bench"
	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/sparse"
)

// cgLLCBytes is the LLC used for the CG experiments: half the paper's
// 8 MB. The classes are used at their NPB sizes; 4 MB keeps the paper's
// Figure 3 relationship (S and W's history working sets fit and lose all
// iterations, B and C stream and lose one).
const cgLLCBytes = 4 << 20

// cgCrashIter is where the CG crash tests inject: the end of iteration
// 15, the last one, as in the paper.
const cgCrashIter = 15

// cgCrashTest crashes the extended solver on m at the end of iteration
// cgCrashIter and recovers it. Beside the measurements it returns what
// the recomputation-cost rows print them with: the iterations lost and
// the average iteration time before the crash.
func cgCrashTest(m *crash.Machine, a *sparse.CSR) (ct crashTest, lost int, avg int64, err error) {
	w := &core.CGWorkload{A: a, Opts: core.CGOptions{MaxIter: cgCrashIter}}
	ct, err = runCrashTest(m, w, core.TriggerCGIterEnd, cgCrashIter)
	return ct, int(ct.done["iterations_lost"]), int64(ct.crashed["avg_iter_ns"]), err
}

// fig3Class is one bar of Figure 3: an input class, its scaled size, and
// cgCrashTest's results.
type fig3Class struct {
	name    string
	n, lost int
	avgNS   int64
	ct      crashTest
}

// fig3Classes runs Figure 3's crash test on every input class, on the
// heterogeneous NVM/DRAM system, as in the paper.
func fig3Classes(ctx context.Context, o Options) ([]fig3Class, error) {
	classes := sparse.Classes()
	label := func(i int) string { return "class-" + classes[i].Name }
	return runCases(ctx, o, "fig3", label, len(classes), func(ci int) (fig3Class, error) {
		cl := classes[ci]
		n := o.scaleInt(cl.N, 200)
		o.logf("fig3: class %s n=%d", cl.Name, n)
		a := sparse.GenSPD(n, cl.NnzRow, 1000+int64(len(cl.Name)))
		ct, lost, avg, err := cgCrashTest(newMachine(crash.Hetero, cgLLCBytes, 16), a)
		if err != nil {
			return fig3Class{}, fmt.Errorf("fig3: class %s: %w", cl.Name, err)
		}
		o.Collector.Record(bench.Result{
			Name:       "fig3/class-" + cl.Name,
			SimNS:      ct.recoverNS + ct.resumeNS,
			RecoveryNS: ct.recoverNS,
		})
		return fig3Class{cl.Name, n, lost, avg, ct}, nil
	})
}

// RunFig3 reproduces Figure 3: recomputation cost of crash-consistent CG
// across input classes, broken into "detecting where to restart" and
// "resuming computation", normalized by the average iteration time.
func RunFig3(ctx context.Context, o Options) (*Table, error) {
	classes, err := fig3Classes(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:  "fig3",
		Title: "CG recomputation cost (normalized to one iteration)",
		Headers: []string{
			"Class", "n", "ItersLost", "Detect/iter", "Resume/iter", "Total/iter",
		},
	}
	for _, c := range classes {
		t.AddRow(c.name, c.n, c.lost, normalize(c.ct.recoverNS, c.avgNS), normalize(c.ct.resumeNS, c.avgNS),
			normalize(c.ct.recoverNS+c.ct.resumeNS, c.avgNS))
	}
	t.AddNote("crash at end of iteration %d on the NVM/DRAM system (paper setup)", cgCrashIter)
	t.AddNote("paper: classes S,W lose all 15 iterations; classes B,C lose 1")
	return t, nil
}

// paperColumn is the tail of Figures 4 and 13: the paper's own
// normalized value for each case.
func paperColumn(ref map[string]string) func(engine.Scheme, engine.Workload) []any {
	return func(sc engine.Scheme, _ engine.Workload) []any { return []any{ref[sc.Name()]} }
}

// RunFig4 reproduces Figure 4: CG runtime under the seven mechanisms,
// normalized by native execution on the same memory system. Class C is
// the input; checkpoint and PMEM act once per iteration so every
// mechanism has the same one-iteration recomputation bound.
func RunFig4(ctx context.Context, o Options) (*Table, error) {
	t, _, err := runRuntimeTable(ctx, o, fig4(o))
	return t, err
}

// fig4 describes Figure 4's runtime experiment.
func fig4(o Options) runtimeTable {
	cl, _ := sparse.ClassByName("C")
	n := o.scaleInt(cl.N, 2000)
	a := sparse.GenSPD(n, cl.NnzRow, 77)
	return runtimeTable{
		name:    "fig4",
		title:   "CG runtime, seven mechanisms (normalized to native)",
		shape:   fmt.Sprintf("class C n=%d", n),
		machine: func(kind crash.SystemKind) *crash.Machine { return newMachine(kind, cgLLCBytes, 16) },
		cases:   engine.SevenCases(),
		variants: []runtimeVariant{{new: func(sc engine.Scheme) engine.Workload {
			return core.NewCGWorkload(a, core.CGOptions{MaxIter: 15}, sc)
		}}},
		tailHeaders: []string{"Paper"},
		tail: paperColumn(map[string]string{
			caseNative:     "1.000",
			caseCkptHDD:    "1.604",
			caseCkptNVM:    "1.042",
			caseCkptHetero: "1.436",
			casePMEM:       "4.290",
			caseAlgoNVM:    "<1.03",
			caseAlgoHetero: "<1.03",
		}),
		notes: []string{"checkpoint/PMEM act once per CG iteration (same recomputation bound as algo)"},
	}
}

// RunCGCacheAblation sweeps the LLC size for a fixed class and reports
// how the recomputation cost of the algorithm-directed approach depends
// on cache capacity — the caching-effect observation of the paper's
// second contribution bullet.
func RunCGCacheAblation(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		Name:    "cg-cache",
		Title:   "CG iterations lost after a crash vs LLC size (class A)",
		Headers: []string{"LLC", "ItersLost", "Detect/iter", "Total/iter"},
	}
	cl, _ := sparse.ClassByName("A")
	n := o.scaleInt(cl.N, 1000)
	a := sparse.GenSPD(n, cl.NnzRow, 88)
	llcs := []int{256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	label := func(i int) string { return fmt.Sprintf("llc-%dKB", llcs[i]>>10) }
	err := runRows(ctx, o, t, label, len(llcs), func(i int) ([]any, error) {
		ct, lost, avg, err := cgCrashTest(newMachine(crash.NVMOnly, llcs[i], 16), a)
		if err != nil {
			return nil, fmt.Errorf("cg-cache: llc=%d: %w", llcs[i], err)
		}
		return []any{fmt.Sprintf("%dKB", llcs[i]>>10), lost,
			normalize(ct.recoverNS, avg), normalize(ct.recoverNS+ct.resumeNS, avg)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("larger caches retain more dirty history rows, increasing loss — the inverse of Figure 3's input-size effect")
	return t, nil
}
