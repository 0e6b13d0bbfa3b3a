package harness

import (
	"context"
	"fmt"

	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/sparse"
)

// RunCLWBAblation quantifies the paper's §II prediction that the
// then-unavailable CLWB / CLFLUSH_OPT instructions "should further
// improve performance of our proposed approach": the same three
// algorithm-directed workloads are run with CLFLUSH (write back +
// invalidate, so the flushed line refills on the next access) and with
// CLWB (write back, line stays resident).
func RunCLWBAblation(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		Name:    "clwb",
		Title:   "Algorithm-directed flush cost: CLFLUSH vs CLWB (paper §II prediction)",
		Headers: []string{"Workload", "Instr", "Time(ms)", "Normalized"},
	}
	cgN := o.scaleInt(40000, 2000)
	a := sparse.GenSPD(cgN, 11, 21)
	mmN := o.scaleInt(400, 160)
	mmK := mmN / 20
	mmN = mmN / mmK * mmK // keep divisibility
	cfg := mcConfig(o)
	workloads := []struct {
		name       string
		llc, assoc int
		new        func() engine.Workload
	}{
		// CG: one iteration-counter flush per iteration.
		{"CG (algo)", cgLLCBytes, 16, func() engine.Workload {
			return &core.CGWorkload{A: a, Opts: core.CGOptions{MaxIter: 12}}
		}},
		// MM: checksum row/column flushes per panel — the workload with
		// the most flush traffic, where CLWB should matter most.
		{"ABFT-MM (algo)", mmLLCBytes, 16, func() engine.Workload {
			return &core.MMWorkload{Opts: core.MMOptions{N: mmN, K: mmK, Seed: 5}}
		}},
		// MC: critical-state flushes every period; the flushed lines are
		// re-written immediately, so CLFLUSH pays a refill per flush.
		{"MC (flush-every-iter)", mcLLCBytes, mcAssoc, func() engine.Workload {
			return &core.MCWorkload{Cfg: cfg, Scheme: engine.MustLookup(engine.SchemeAlgoEvery)}
		}},
	}
	instrs := []crash.FlushInstr{crash.CLFLUSH, crash.CLWB}
	label := func(i int) string {
		return fmt.Sprintf("%s/%s", workloads[i/len(instrs)].name, instrs[i%len(instrs)])
	}
	times, err := runCases(ctx, o, "clwb", label, len(workloads)*len(instrs), func(i int) (int64, error) {
		w := workloads[i/len(instrs)]
		instr := instrs[i%len(instrs)]
		o.logf("clwb: %s instr=%d", w.name, instr)
		m := crash.NewMachine(crash.MachineConfig{System: crash.NVMOnly, Cache: llcConfig(w.llc, w.assoc), Flush: instr})
		return timedRun(m, w.new())
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range workloads {
		base := times[wi*len(instrs)]
		opt := times[wi*len(instrs)+1]
		t.AddRow(w.name, "CLFLUSH", fmt.Sprintf("%.2f", float64(base)/1e6), 1.0)
		t.AddRow(w.name, "CLWB", fmt.Sprintf("%.2f", float64(opt)/1e6), normalize(opt, base))
	}
	t.AddNote("CLWB keeps flushed lines resident; the gain grows with flush frequency, as §II anticipates")
	return t, nil
}
