package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"adcc/pkg/adcc"
)

// campaignUnit is one replay-engine campaign run through the public
// Runner, the way `crashsim -campaign -replay` runs it.
type campaignUnit struct {
	spec  adcc.CampaignSpec
	cells int // grid size, from adcc.CampaignCells

	rep    *adcc.CampaignReport // report of the last run
	golden []byte               // report bytes of the first run
	// tamper, when set, edits the report before it is checked: the
	// negative test of the output checks.
	tamper func(*adcc.CampaignReport)

	// marks of the last traced run, on the trace clock
	start, end int64
	profileAt  []int64 // campaign/profile progress events
	recordAt   []int64 // campaign/record progress events, one per cell
	cellAt     []int64 // checkpoint callbacks, one per cell
	cellKeys   []string
}

func campaignUnitName(s adcc.CampaignSpec) string {
	name := fmt.Sprintf("%s@%g", s.Workloads[0], s.Scale)
	if len(s.FaultModels) > 0 {
		name += "+" + strings.Join(s.FaultModels, ",")
	}
	return name
}

// newCampaignUnit builds the unit for spec. Campaigns are built through
// CampaignSpec.Options, so that one line changes if the engine switch
// moves.
func newCampaignUnit(spec adcc.CampaignSpec) (*campaignUnit, error) {
	spec.Replay = true
	keys, err := adcc.CampaignCells(nil, spec)
	if err != nil {
		return nil, err
	}
	return &campaignUnit{spec: spec, cells: len(keys)}, nil
}

func (c *campaignUnit) unit() *unit {
	return &unit{
		name:  campaignUnitName(c.spec),
		job:   true,
		run:   c.run,
		check: c.check,
		ops: func() int {
			if c.rep == nil {
				return 0
			}
			return c.rep.Injections
		},
	}
}

func (c *campaignUnit) run(_ int, tr *tracer, parent int) error {
	opts := append(c.spec.Options(), adcc.WithParallelism(1))
	if tr != nil {
		c.profileAt, c.recordAt, c.cellAt, c.cellKeys = c.profileAt[:0], c.recordAt[:0], c.cellAt[:0], c.cellKeys[:0]
		opts = append(opts,
			adcc.WithEventSink(adcc.SinkFunc(func(e adcc.Event) {
				if p, ok := e.(adcc.Progress); ok {
					switch p.Stage {
					case "campaign/profile":
						c.profileAt = append(c.profileAt, tr.now())
					case "campaign/record":
						c.recordAt = append(c.recordAt, tr.now())
					}
				}
			})),
			adcc.WithCampaignCheckpoint(func(cell adcc.CampaignCell) {
				c.cellAt = append(c.cellAt, tr.now())
				c.cellKeys = append(c.cellKeys, cell.Key())
			}))
		c.start = tr.now()
	}
	c.rep = nil
	rep, err := adcc.New(nil, opts...).RunCampaign(context.Background())
	if err != nil {
		return err
	}
	c.rep = rep
	if tr != nil {
		c.end = tr.now()
		c.cutSpans(tr, parent)
	}
	return nil
}

// cutSpans turns the event timestamps of a Parallel=1 run into boundary
// spans: the profiling stage, then per cell the record-and-fork work up
// to its campaign/record event and the emission of its injections up to
// its checkpoint callback, then the final aggregation.
func (c *campaignUnit) cutSpans(tr *tracer, parent int) {
	edge := c.start
	if n := len(c.profileAt); n > 0 {
		prof := tr.add("campaign/profile", "campaign", parent, edge, c.profileAt[n-1])
		for i, at := range c.profileAt {
			tr.add(fmt.Sprintf("profile %d", i), "crash+workload", prof, edge, at)
			edge = at
		}
	}
	for i := range c.cellAt {
		if i >= len(c.recordAt) {
			break
		}
		cell := tr.add("cell "+c.cellKeys[i], "campaign", parent, edge, c.cellAt[i])
		tr.add("record+fork", "crash+workload", cell, edge, c.recordAt[i])
		tr.add("emit", "campaign", cell, c.recordAt[i], c.cellAt[i])
		edge = c.cellAt[i]
	}
	tr.add("aggregate", "campaign", parent, edge, c.end)
}

// check verifies the last report semantically, then against the bytes
// of the first run.
func (c *campaignUnit) check() error {
	rep := c.rep
	if rep == nil {
		return fmt.Errorf("no report")
	}
	if c.tamper != nil {
		c.tamper(rep)
	}
	if err := checkReport(rep, c.cells); err != nil {
		return err
	}
	b, err := adcc.NewCampaignReport(rep).EncodeJSON()
	if err != nil {
		return err
	}
	if c.golden == nil {
		c.golden = b
	} else if !bytes.Equal(b, c.golden) {
		return fmt.Errorf("report bytes differ from the first pass")
	}
	return nil
}

// checkReport holds the properties every campaign report must have,
// whatever fields a later change adds to it: the grid is complete, each
// cell's outcomes sum to its injections, under fail-stop the
// algorithm-directed scheme always recovers, and the naive index-only
// design loses data on the stencil and the KV store.
func checkReport(rep *adcc.CampaignReport, cells int) error {
	if len(rep.Cells) != cells {
		return fmt.Errorf("report has %d cells, the grid has %d", len(rep.Cells), cells)
	}
	total := 0
	naiveCorrupt := map[string]int{} // per workload with fail-stop algo-naive cells
	for _, c := range rep.Cells {
		if sum := c.Clean + c.Recomputed + c.Corrupt + c.Unrecoverable + c.NoCrash; sum != c.Injections {
			return fmt.Errorf("cell %s: outcomes sum to %d, injections %d", c.Key(), sum, c.Injections)
		}
		total += c.Injections
		if c.FaultModel != "" {
			continue
		}
		if c.Scheme == adcc.SchemeAlgoNVM && c.Failures() != 0 {
			return fmt.Errorf("cell %s: %d fail-stop injections not recovered", c.Key(), c.Failures())
		}
		if c.Scheme == adcc.SchemeAlgoNaive && (c.Workload == adcc.WorkloadStencil || c.Workload == adcc.WorkloadKVLog) {
			naiveCorrupt[c.Workload] += c.Corrupt
		}
	}
	if total != rep.Injections {
		return fmt.Errorf("cells hold %d injections, report says %d", total, rep.Injections)
	}
	for w, n := range naiveCorrupt {
		if n == 0 {
			return fmt.Errorf("%s: algo-naive corrupted nothing under fail-stop", w)
		}
	}
	return nil
}

// replayWorkload is a workload made of campaign units, plus what its
// traced passes observed of the campaign layer.
type replayWorkload struct {
	units []*campaignUnit

	profileFrac, cellP50, cellMax, slowestFrac []float64
}

// newReplay builds the workload's campaign units from specs.
func newReplay(specs []adcc.CampaignSpec) (*replayWorkload, error) {
	w := &replayWorkload{}
	for _, s := range specs {
		c, err := newCampaignUnit(s)
		if err != nil {
			return nil, err
		}
		w.units = append(w.units, c)
	}
	return w, nil
}

func (w *replayWorkload) instance() *instance {
	inst := &instance{close: func() {}, observe: w.observe, layerMetrics: w.layerMetrics}
	for _, c := range w.units {
		inst.units = append(inst.units, c.unit())
	}
	return inst
}

func buildReplay(specs []adcc.CampaignSpec) (*instance, error) {
	w, err := newReplay(specs)
	if err != nil {
		return nil, err
	}
	return w.instance(), nil
}

// observe reduces one traced pass to the campaign layer's shares: each
// cell's time is converted to reference milliseconds with the slices
// that bracket its unit.
func (w *replayWorkload) observe(samples []sample) {
	var cellMS []float64
	var profile, total, slowest float64
	for i, c := range w.units {
		s := samples[i]
		total += s.refSeconds(s.wall)
		edge := c.start
		if n := len(c.profileAt); n > 0 {
			profile += s.refSeconds(time.Duration(c.profileAt[n-1] - c.start))
			edge = c.profileAt[n-1]
		}
		for _, at := range c.cellAt {
			ms := s.refSeconds(time.Duration(at-edge)) * 1e3
			cellMS = append(cellMS, ms)
			slowest = max(slowest, ms/1e3)
			edge = at
		}
	}
	w.profileFrac = append(w.profileFrac, profile/total)
	w.cellP50 = append(w.cellP50, median(cellMS))
	w.cellMax = append(w.cellMax, quantile(cellMS, 1))
	w.slowestFrac = append(w.slowestFrac, slowest/total)
}

// layerMetrics reports the campaign layer as seen from outside, and the
// exact simulated totals of one pass, which a change that only speeds up
// the host must leave identical.
func (w *replayWorkload) layerMetrics() map[string]float64 {
	m := map[string]float64{
		"campaign.profile_frac":      median(w.profileFrac),
		"campaign.cell_ms_p50":       median(w.cellP50),
		"campaign.cell_ms_max":       median(w.cellMax),
		"campaign.slowest_cell_frac": median(w.slowestFrac),
	}
	var recoverNS, resumeNS, flush, rework int64
	var recovered, crashed int
	for _, c := range w.units {
		if c.rep == nil {
			continue
		}
		for _, cell := range c.rep.Cells {
			recoverNS += cell.RecoverSimNS
			resumeNS += cell.ResumeSimNS
			flush += cell.FlushLines
			rework += cell.ReworkOps
			recovered += cell.Clean + cell.Recomputed
			crashed += cell.Injections - cell.NoCrash
		}
	}
	m["sim.recover_ns_total"] = float64(recoverNS)
	m["sim.resume_ns_total"] = float64(resumeNS)
	m["sim.flush_lines_total"] = float64(flush)
	m["sim.rework_ops_total"] = float64(rework)
	if crashed > 0 {
		m["sim.recovered_frac"] = float64(recovered) / float64(crashed)
	}
	return m
}
