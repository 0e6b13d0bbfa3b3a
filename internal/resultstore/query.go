package resultstore

import (
	"fmt"
	"slices"
	"strings"

	"adcc/internal/campaign"
)

// FailStop is the filter spelling for the clean fail-stop fault model,
// which cells store as the empty string. A Filter with FaultModel ""
// matches any model; FaultModel "failstop" matches only fail-stop
// cells, mirroring the campaign's -fault flag vocabulary.
const FailStop = "failstop"

// Filter selects rows by cell coordinates and outcome. Zero-valued
// fields match everything, so the zero Filter selects the whole store.
type Filter struct {
	Workload string
	Scheme   string
	System   string
	// FaultModel: "" matches any model; FailStop matches fail-stop
	// cells; any other value matches that named model.
	FaultModel string
	// Outcome is an outcome name ("clean", "corrupt", ...); "" matches
	// all outcomes.
	Outcome string
}

// matchCell reports whether the filter's cell coordinates admit c.
func (f Filter) matchCell(info campaign.CellInfo) bool {
	if f.Workload != "" && f.Workload != info.Workload {
		return false
	}
	if f.Scheme != "" && f.Scheme != info.Scheme {
		return false
	}
	if f.System != "" && f.System != info.System {
		return false
	}
	switch f.FaultModel {
	case "":
	case FailStop:
		if info.FaultModel != "" {
			return false
		}
	default:
		if info.FaultModel != f.FaultModel {
			return false
		}
	}
	return true
}

// outcome parses the filter's outcome name; ok=false means no outcome
// constraint.
func (f Filter) outcome() (campaign.Outcome, bool, error) {
	if f.Outcome == "" {
		return 0, false, nil
	}
	o, err := campaign.ParseOutcome(f.Outcome)
	return o, true, err
}

// Row is one stored injection joined with its cell coordinates.
type Row struct {
	Workload   string
	Scheme     string
	System     string
	FaultModel string
	campaign.InjectionRow
}

// Scan streams every row the filter admits, in store (grid × point)
// order, stopping at the first error fn returns.
func (s *Store) Scan(f Filter, fn func(Row) error) error {
	want, haveOutcome, err := f.outcome()
	if err != nil {
		return err
	}
	for _, c := range s.cells {
		info := s.cellInfo(c)
		if !f.matchCell(info) {
			continue
		}
		rows, err := s.cellRows(c)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if haveOutcome && r.Outcome != want {
				continue
			}
			if err := fn(Row{
				Workload:     info.Workload,
				Scheme:       info.Scheme,
				System:       info.System,
				FaultModel:   info.FaultModel,
				InjectionRow: r,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Metric names a per-row integer a distribution query summarizes.
type Metric int

const (
	// MetricReworkOps is the re-executed op count the scheme forced.
	MetricReworkOps Metric = iota
	// MetricRecoverResumeSimNS is the total simulated recovery cost:
	// recover plus resume time.
	MetricRecoverResumeSimNS
	// MetricFlushLines is the cache-line flush count during recovery
	// and resumption.
	MetricFlushLines
	// MetricCrashOps is the op count the crash fired at.
	MetricCrashOps
	// MetricRecoverSimNS is the simulated post-crash detection/restore
	// time alone.
	MetricRecoverSimNS
	// MetricResumeSimNS is the simulated re-execution time alone.
	MetricResumeSimNS
)

// metricNames is the canonical Metric vocabulary, in value order.
var metricNames = []string{
	"rework-ops", "recover-resume-sim-ns", "flush-lines",
	"crash-ops", "recover-sim-ns", "resume-sim-ns",
}

// String names the metric as ParseMetric accepts it.
func (m Metric) String() string {
	if int(m) < 0 || int(m) >= len(metricNames) {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricNames[m]
}

// MetricNames lists every metric name in Metric value order.
func MetricNames() []string {
	return append([]string(nil), metricNames...)
}

// ParseMetric resolves a metric name.
func ParseMetric(name string) (Metric, error) {
	for i, n := range metricNames {
		if n == name {
			return Metric(i), nil
		}
	}
	return 0, fmt.Errorf("resultstore: unknown metric %q (want one of %s)",
		name, strings.Join(metricNames, ", "))
}

// value extracts the metric from one row.
func (m Metric) value(r campaign.InjectionRow) int64 {
	switch m {
	case MetricReworkOps:
		return r.ReworkOps
	case MetricRecoverResumeSimNS:
		return r.RecoverSimNS + r.ResumeSimNS
	case MetricFlushLines:
		return r.FlushLines
	case MetricCrashOps:
		return r.CrashOps
	case MetricRecoverSimNS:
		return r.RecoverSimNS
	case MetricResumeSimNS:
		return r.ResumeSimNS
	default:
		return 0
	}
}

// Dist summarizes one metric over the rows a filter admits: count,
// sum, max, and nearest-rank percentiles. Percentile p over n sorted
// values is element ceil(p·n)-1 — the smallest value with at least p·n
// values at or below it — so it is always an observed value, exact for
// any n, and needs no interpolation policy.
type Dist struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.9999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// distOf summarizes one value set, sorting vals in place.
func distOf(vals []int64) Dist {
	var d Dist
	d.Count = int64(len(vals))
	for _, v := range vals {
		d.Sum += v
		if v > d.Max {
			d.Max = v
		}
	}
	slices.Sort(vals)
	d.P50 = percentile(vals, 0.50)
	d.P95 = percentile(vals, 0.95)
	d.P99 = percentile(vals, 0.99)
	return d
}

// Distribution computes one metric's Dist over the filtered rows.
func (s *Store) Distribution(f Filter, m Metric) (Dist, error) {
	var vals []int64
	err := s.Scan(f, func(r Row) error {
		vals = append(vals, m.value(r.InjectionRow))
		return nil
	})
	if err != nil {
		return Dist{}, err
	}
	return distOf(vals), nil
}

// Aggregate is the standard roll-up of a filtered row set: outcome
// counts plus distributions of the paper's three recovery-cost axes.
type Aggregate struct {
	Rows               int64            `json:"rows"`
	Outcomes           map[string]int64 `json:"outcomes"`
	ReworkOps          Dist             `json:"rework_ops"`
	RecoverResumeSimNS Dist             `json:"recover_resume_sim_ns"`
	FlushLines         Dist             `json:"flush_lines"`
}

// numOutcomes is the number of campaign.Outcome values.
const numOutcomes = int(campaign.OutcomeNoCrash) + 1

// Aggregate computes the roll-up in one pass over the filtered rows.
func (s *Store) Aggregate(f Filter) (Aggregate, error) {
	// The rows of the cells the filter admits bound the row count.
	n := 0
	for _, c := range s.cells {
		if f.matchCell(s.cellInfo(c)) {
			n += c.rowCount
		}
	}
	var outcomes [numOutcomes]int64
	rework, cost, flush := make([]int64, 0, n), make([]int64, 0, n), make([]int64, 0, n)
	err := s.Scan(f, func(r Row) error {
		outcomes[r.Outcome]++
		rework = append(rework, r.ReworkOps)
		cost = append(cost, r.RecoverSimNS+r.ResumeSimNS)
		flush = append(flush, r.FlushLines)
		return nil
	})
	if err != nil {
		return Aggregate{}, err
	}
	agg := Aggregate{Rows: int64(len(rework)), Outcomes: map[string]int64{}}
	for o, k := range outcomes {
		if k > 0 {
			agg.Outcomes[campaign.Outcome(o).String()] = k
		}
	}
	agg.ReworkOps = distOf(rework)
	agg.RecoverResumeSimNS = distOf(cost)
	agg.FlushLines = distOf(flush)
	return agg, nil
}

// CellReports rebuilds the campaign's per-cell aggregates for every
// cell the filter admits, via the same CellReport.Add/Finalize path
// the live engines use, sorted in canonical report order. Outcome
// filters apply per row, so a filtered cell report covers only the
// admitted rows.
func (s *Store) CellReports(f Filter) ([]campaign.CellReport, error) {
	want, haveOutcome, err := f.outcome()
	if err != nil {
		return nil, err
	}
	var out []campaign.CellReport
	for _, c := range s.cells {
		info := s.cellInfo(c)
		if !f.matchCell(info) {
			continue
		}
		rows, err := s.cellRows(c)
		if err != nil {
			return nil, err
		}
		cr := campaign.CellReport{
			Workload:   info.Workload,
			Scheme:     info.Scheme,
			System:     info.System,
			FaultModel: info.FaultModel,
			ProfileOps: info.ProfileOps,
			GrainOps:   info.GrainOps,
		}
		for _, r := range rows {
			if haveOutcome && r.Outcome != want {
				continue
			}
			cr.Add(r)
		}
		cr.Finalize()
		out = append(out, cr)
	}
	campaign.SortCells(out)
	return out, nil
}

// CampaignReport rebuilds the full adcc-campaign/v1 report from the
// store — the proof that the JSON envelope is an export of the store:
// for a campaign run with a Sink, EncodeJSON of this report is
// byte-identical to the envelope the live run wrote.
func (s *Store) CampaignReport() (*campaign.Report, error) {
	cells, err := s.CellReports(Filter{})
	if err != nil {
		return nil, err
	}
	rep := &campaign.Report{
		Schema: campaign.SchemaVersion,
		Scale:  s.scale,
		Seed:   s.seed,
		Cells:  cells,
	}
	for _, c := range cells {
		rep.Injections += c.Injections
	}
	return rep, nil
}
