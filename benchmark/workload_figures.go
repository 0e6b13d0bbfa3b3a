package main

import (
	"context"
	"fmt"
	"strings"

	"adcc/pkg/adcc"
)

// experimentUnit is one harness experiment run through the public
// Runner, the way `adccbench -experiment <name> -scale <s>` runs it.
type experimentUnit struct {
	name  string
	scale float64

	table  *adcc.Table
	golden string // rendered table of the first run
	cases  int    // CaseFinished events of the first run
	// tamper, when set, edits the table before it is checked.
	tamper func(*adcc.Table)
}

func newExperimentUnit(name string, scale float64) *unit {
	e := &experimentUnit{name: name, scale: scale}
	return &unit{
		name:  fmt.Sprintf("%s@%g", name, scale),
		job:   true,
		run:   e.run,
		check: e.check,
		ops:   func() int { return e.cases },
	}
}

func (e *experimentUnit) run(_ int, tr *tracer, parent int) error {
	opts := []adcc.Option{adcc.WithScale(e.scale), adcc.WithParallelism(1)}
	// The operation count of an experiment is its number of cases, known
	// only from the event stream: the first run always listens.
	count := e.cases == 0
	cases := 0
	if tr != nil || count {
		edge := int64(0)
		if tr != nil {
			edge = tr.now()
		}
		opts = append(opts, adcc.WithEventSink(adcc.SinkFunc(func(ev adcc.Event) {
			fin, ok := ev.(adcc.CaseFinished)
			if !ok {
				return
			}
			cases++
			if tr != nil {
				at := tr.now()
				tr.add("case "+fin.Case, "harness", parent, edge, at)
				edge = at
			}
		})))
	}
	e.table = nil
	t, err := adcc.New(nil, opts...).RunExperiment(context.Background(), e.name)
	if err != nil {
		return err
	}
	e.table = t
	if count {
		e.cases = cases
	}
	return nil
}

// check requires a non-empty table that renders the same on every pass.
func (e *experimentUnit) check() error {
	if e.table == nil {
		return fmt.Errorf("no table")
	}
	if e.tamper != nil {
		e.tamper(e.table)
	}
	if len(e.table.Rows) == 0 || e.cases == 0 {
		return fmt.Errorf("empty table (%d rows, %d cases)", len(e.table.Rows), e.cases)
	}
	s := e.table.String()
	if e.golden == "" {
		e.golden = s
	} else if s != e.golden {
		return fmt.Errorf("table differs from the first pass")
	}
	return nil
}

// figuresWorkload observes the harness layer: reference time per
// experiment, over the traced passes.
type figuresWorkload struct {
	names  []string
	perExp [][]float64
}

func buildFigures(cfg config) (*instance, error) {
	figScale, famScale := 0.05, 1.0
	if cfg.quick {
		figScale, famScale = 0.02, 0.05
	}
	w := &figuresWorkload{}
	inst := &instance{close: func() {}, observe: w.observe, layerMetrics: w.layerMetrics}
	add := func(name string, scale float64) {
		inst.units = append(inst.units, newExperimentUnit(name, scale))
		w.names = append(w.names, name)
	}
	figures := []string{"fig3", "fig4", "fig7", "fig8", "fig10", "fig12", "fig13"}
	if cfg.quick {
		figures = []string{"fig7", "fig10", "fig12"} // the ones whose size floors are small
	}
	for _, f := range figures {
		add(f, figScale)
	}
	add("stencil", famScale)
	add("kvlog", famScale)
	w.perExp = make([][]float64, len(w.names))
	return inst, nil
}

func (w *figuresWorkload) observe(samples []sample) {
	for i, s := range samples {
		w.perExp[i] = append(w.perExp[i], s.refSeconds(s.wall)*1e3)
	}
}

func (w *figuresWorkload) layerMetrics() map[string]float64 {
	m := map[string]float64{}
	for i, n := range w.names {
		m["harness."+strings.ToLower(n)+"_ms"] = median(w.perExp[i])
	}
	return m
}
