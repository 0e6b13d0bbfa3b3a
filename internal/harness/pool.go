package harness

import (
	"context"

	"adcc/internal/engine"
)

// runCases executes n independent experiment cases through the engine's
// bounded worker pool (engine.RunCases), honoring o.Parallel and the
// run's context. Each case builds its own simulated machine and seeds
// its own inputs, so execution order cannot affect results; collecting
// them by case index keeps the emitted tables byte-identical to a
// serial run.
//
// exp and label feed the event stream: with Options.Events set, every
// case emits a CaseStarted/CaseFinished pair in case-index order (label
// may be nil for anonymous cases). Cancelling ctx stops the dispatch of
// queued cases and surfaces ctx.Err().
func runCases[T any](ctx context.Context, o Options, exp string, label func(i int) string, n int, run func(i int) (T, error)) ([]T, error) {
	return engine.RunCasesObserved(ctx, o.Parallel, n, run,
		engine.EmitCases[T](o.Events, exp, n, label))
}

// runRows is runCases for the experiments whose every case yields one row
// of t: the rows are appended in case order, under t's name as the
// experiment.
func runRows(ctx context.Context, o Options, t *Table, label func(i int) string, n int, run func(i int) ([]any, error)) error {
	rows, err := runCases(ctx, o, t.Name, label, n, run)
	for _, r := range rows {
		t.AddRow(r...)
	}
	return err
}
