package campaign

import (
	"context"
	"fmt"
	"testing"

	"adcc/internal/crash"
	"adcc/internal/engine"
)

// This file holds the differential oracle: the from-scratch engine the
// snapshot/fork engine replaced. Every (cell, point) runs the workload
// from op 0 on its own fresh machine, really crashes, and recovers
// there — nothing is captured, shared, or restored, so it cannot share a
// bug with the copy-on-write capture, the equivalence classes, or the
// memoized restores. It is reached only through run's stage2 seam; the
// planning, classification (expandInjection), and aggregation around it
// are the engine's own.

// runOracle is Run on the from-scratch engine.
func runOracle(ctx context.Context, cfg Config) (*Report, error) {
	return run(ctx, cfg, runLegacy)
}

// job is one injection task of the oracle's flattened sweep.
type job struct {
	PlanIdx int
	Point   crash.CrashPoint
}

// runLegacy is the oracle's stage 2. Jobs fan through the bounded pool
// independently; observation in index order feeds Sink, Events, and
// OnCell the sequence the engine produces (minus its per-cell
// "campaign/record" Progress events).
func runLegacy(ctx context.Context, cfg Config, plans []plan) ([]InjectionRow, error) {
	var jobs []job
	for pi, p := range plans {
		for _, pt := range p.Points {
			jobs = append(jobs, job{PlanIdx: pi, Point: pt})
		}
	}
	var cellBuf []InjectionRow
	observe := func(i int, inj InjectionRow, _ error) {
		pi := jobs[i].PlanIdx
		if cfg.Sink != nil {
			// Jobs are plan-major, so a plan-index change opens the cell.
			if i == 0 || jobs[i-1].PlanIdx != pi {
				cfg.Sink.BeginCell(plans[pi].info())
			}
			cfg.Sink.Row(inj)
		}
		if cfg.Events != nil {
			cfg.Events.Emit(engine.InjectionDone{
				Cell:    plans[pi].Cell.String(),
				Index:   i,
				Total:   len(jobs),
				Outcome: inj.Outcome.String(),
			})
		}
		if cfg.OnCell == nil {
			return
		}
		// The last job of a plan closes the cell.
		cellBuf = append(cellBuf, inj)
		if i+1 == len(jobs) || jobs[i+1].PlanIdx != pi {
			cfg.OnCell(aggregateCell(plans[pi], cellBuf))
			cellBuf = cellBuf[:0]
		}
	}
	return engine.RunCasesObserved(ctx, cfg.Parallel, len(jobs), func(i int) (InjectionRow, error) {
		return runInjection(cfg, plans[jobs[i].PlanIdx], jobs[i].Point), nil
	}, observe)
}

// runInjection executes one crash point on a fresh machine: run to the
// armed crash, then recover, resume, and verify where it fell.
func runInjection(cfg Config, p plan, pt crash.CrashPoint) InjectionRow {
	m := p.Cell.newMachine()
	em := crash.NewEmulator(m)
	w, err := p.prepared(cfg, m, em)
	if err != nil {
		return expandInjection(classResult{prepErr: true}, 0, p)
	}
	if err := em.SetFault(p.Cell.fault(cfg.Seed)); err != nil {
		// Unreachable for the parsed built-in models, but a malformed
		// model must classify, not panic.
		return expandInjection(classResult{prepErr: true}, 0, p)
	}
	em.Arm(pt)
	if !em.Run(func() { w.Run(w.Start()) }) {
		return InjectionRow{Outcome: OutcomeNoCrash}
	}
	crashOps := em.CrashOps()
	em.Disarm()
	return expandInjection(recoverAndResume(m, em, w), crashOps, p)
}

// rowLog is a RowSink that renders everything it is handed.
type rowLog struct{ lines []string }

func (l *rowLog) BeginCell(ci CellInfo) { l.lines = append(l.lines, fmt.Sprintf("cell %+v", ci)) }
func (l *rowLog) Row(r InjectionRow)    { l.lines = append(l.lines, fmt.Sprintf("row %+v", r)) }

// runEncoded runs cfg through exec with a rowLog attached and returns
// the report, its encoding, and the sink's BeginCell/Row sequence.
func runEncoded(t *testing.T, exec func(context.Context, Config) (*Report, error), cfg Config) (*Report, string, []string) {
	t.Helper()
	sink := &rowLog{}
	cfg.Sink = sink
	rep, err := exec(context.Background(), cfg)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	b, err := rep.EncodeJSON()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return rep, string(b), sink.lines
}

// requireEngineMatchesOracle is the engine's contract: at worker-pool
// widths 1 and 8 the engine's report and RowSink sequence must equal,
// byte for byte, what the from-scratch oracle produces for cfg. It
// returns the oracle's report for further assertions.
func requireEngineMatchesOracle(t *testing.T, cfg Config) *Report {
	t.Helper()
	cfg.Parallel = 4
	oracle, want, wantRows := runEncoded(t, runOracle, cfg)
	for _, parallel := range []int{1, 8} {
		cfg.Parallel = parallel
		_, got, gotRows := runEncoded(t, Run, cfg)
		if got != want {
			t.Errorf("engine report (parallel=%d) differs from oracle:\noracle:\n%s\nengine:\n%s", parallel, want, got)
		}
		if len(gotRows) != len(wantRows) {
			t.Errorf("engine sink saw %d calls (parallel=%d), oracle %d", len(gotRows), parallel, len(wantRows))
			continue
		}
		for i := range gotRows {
			if gotRows[i] != wantRows[i] {
				t.Errorf("sink call %d (parallel=%d):\nengine: %s\noracle: %s", i, parallel, gotRows[i], wantRows[i])
				break
			}
		}
	}
	return oracle
}
