package resultstore

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"adcc/internal/campaign"
)

// oraclePercentile is the naive nearest-rank definition, computed
// independently of the query layer: the smallest value v such that at
// least p·n of the values are ≤ v.
func oraclePercentile(vals []int64, p float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	need := int(math.Ceil(p * float64(len(sorted))))
	if need < 1 {
		need = 1
	}
	for _, v := range sorted {
		n := 0
		for _, u := range sorted {
			if u <= v {
				n++
			}
		}
		if n >= need {
			return v
		}
	}
	return sorted[len(sorted)-1]
}

// TestPercentileOracle: the store's percentile aggregation matches the
// naive sort-based oracle on random value sets of every small size and
// several larger ones.
func TestPercentileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sizes := []int{1, 2, 3, 4, 5, 7, 10, 19, 20, 21, 99, 100, 101, 1000}
	for _, n := range sizes {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		d := distOf(vals)
		for _, tc := range []struct {
			p    float64
			got  int64
			name string
		}{
			{0.50, d.P50, "p50"},
			{0.95, d.P95, "p95"},
			{0.99, d.P99, "p99"},
		} {
			if want := oraclePercentile(vals, tc.p); tc.got != want {
				t.Errorf("n=%d %s: got %d, oracle %d", n, tc.name, tc.got, want)
			}
		}
		var sum, max int64
		for _, v := range vals {
			sum += v
			if v > max {
				max = v
			}
		}
		if d.Sum != sum || d.Max != max || d.Count != int64(n) {
			t.Errorf("n=%d: Dist{Count:%d Sum:%d Max:%d}, want {%d %d %d}", n, d.Count, d.Sum, d.Max, n, sum, max)
		}
	}
}

// TestPercentileTies: duplicated values keep nearest-rank exact — the
// classic off-by-one trap.
func TestPercentileTies(t *testing.T) {
	d := distOf([]int64{5, 5, 5, 5, 5})
	if d.P50 != 5 || d.P95 != 5 || d.P99 != 5 {
		t.Fatalf("all-equal dist: %+v", d)
	}
	// 100 values 1..100: p50 = 50, p95 = 95, p99 = 99 exactly.
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	d = distOf(vals)
	if d.P50 != 50 || d.P95 != 95 || d.P99 != 99 {
		t.Fatalf("1..100 dist: p50=%d p95=%d p99=%d, want 50/95/99", d.P50, d.P95, d.P99)
	}
}

// TestDistributionAndAggregate: Distribution and Aggregate agree with
// values extracted by a plain reference Scan.
func TestDistributionAndAggregate(t *testing.T) {
	b, ref, _, _ := genStore(t, 4242, 6)
	s, err := Open(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	f := Filter{Workload: "mm"}
	var rework, cost, flush []int64
	outcomes := map[string]int64{}
	var rows int64
	for _, r := range ref {
		if r.cell.Workload != "mm" {
			continue
		}
		rows++
		outcomes[r.row.Outcome.String()]++
		rework = append(rework, r.row.ReworkOps)
		cost = append(cost, r.row.RecoverSimNS+r.row.ResumeSimNS)
		flush = append(flush, r.row.FlushLines)
	}

	for _, tc := range []struct {
		m    Metric
		vals []int64
	}{
		{MetricReworkOps, rework},
		{MetricRecoverResumeSimNS, cost},
		{MetricFlushLines, flush},
	} {
		d, err := s.Distribution(f, tc.m)
		if err != nil {
			t.Fatalf("Distribution(%s): %v", tc.m, err)
		}
		if want := distOf(tc.vals); d != want {
			t.Errorf("Distribution(%s) = %+v, want %+v", tc.m, d, want)
		}
	}

	agg, err := s.Aggregate(f)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if agg.Rows != rows {
		t.Errorf("Aggregate.Rows = %d, want %d", agg.Rows, rows)
	}
	if len(agg.Outcomes) != len(outcomes) {
		t.Errorf("Aggregate.Outcomes = %v, want %v", agg.Outcomes, outcomes)
	}
	for k, v := range outcomes {
		if agg.Outcomes[k] != v {
			t.Errorf("Aggregate.Outcomes[%q] = %d, want %d", k, agg.Outcomes[k], v)
		}
	}
	if want := distOf(rework); agg.ReworkOps != want {
		t.Errorf("Aggregate.ReworkOps = %+v, want %+v", agg.ReworkOps, want)
	}
}

// aggregateRef is the reference roll-up Aggregate is held to: a map
// increment per row and a sorted copy of each value set.
func aggregateRef(s *Store, f Filter) (Aggregate, error) {
	agg := Aggregate{Outcomes: map[string]int64{}}
	var rework, cost, flush []int64
	err := s.Scan(f, func(r Row) error {
		agg.Rows++
		agg.Outcomes[r.Outcome.String()]++
		rework = append(rework, r.ReworkOps)
		cost = append(cost, r.RecoverSimNS+r.ResumeSimNS)
		flush = append(flush, r.FlushLines)
		return nil
	})
	if err != nil {
		return Aggregate{}, err
	}
	dist := func(vals []int64) Dist {
		d := Dist{Count: int64(len(vals))}
		for _, v := range vals {
			d.Sum += v
			if v > d.Max {
				d.Max = v
			}
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		d.P50 = percentile(sorted, 0.50)
		d.P95 = percentile(sorted, 0.95)
		d.P99 = percentile(sorted, 0.99)
		return d
	}
	agg.ReworkOps = dist(rework)
	agg.RecoverResumeSimNS = dist(cost)
	agg.FlushLines = dist(flush)
	return agg, nil
}

// TestAggregateMatchesReference: over random stores and every filter
// shape, Aggregate equals the reference roll-up and encodes to the
// same JSON bytes; an unknown outcome fails both.
func TestAggregateMatchesReference(t *testing.T) {
	var filters []Filter
	for _, w := range []string{"", "cg", "mm", "nope"} {
		for _, scheme := range []string{"", "pmem"} {
			for _, sys := range []string{"", "dram"} {
				for _, fm := range []string{"", FailStop, "torn"} {
					for _, o := range append([]string{"", "exploded"}, campaign.OutcomeNames()...) {
						filters = append(filters, Filter{Workload: w, Scheme: scheme, System: sys, FaultModel: fm, Outcome: o})
					}
				}
			}
		}
	}
	for trial := int64(0); trial < 12; trial++ {
		b, _, _, _ := genStore(t, 5000+trial, int(trial%9))
		s, err := Open(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatalf("trial %d: Open: %v", trial, err)
		}
		for _, f := range filters {
			got, err := s.Aggregate(f)
			want, wantErr := aggregateRef(s, f)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("trial %d %+v: error %v, reference %v", trial, f, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %+v:\n got %+v\nwant %+v", trial, f, got, want)
			}
			gj, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wj, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gj, wj) {
				t.Fatalf("trial %d %+v: JSON\n%s\nreference\n%s", trial, f, gj, wj)
			}
		}
	}
}

// TestMetricRoundTrip: every metric name parses back to its value.
func TestMetricRoundTrip(t *testing.T) {
	for i, name := range MetricNames() {
		m, err := ParseMetric(name)
		if err != nil || m != Metric(i) {
			t.Errorf("ParseMetric(%q) = %v, %v; want Metric(%d)", name, m, err, i)
		}
		if Metric(i).String() != name {
			t.Errorf("Metric(%d).String() = %q, want %q", i, Metric(i).String(), name)
		}
	}
	if _, err := ParseMetric("warp-cores"); err == nil {
		t.Error("ParseMetric accepted an unknown name")
	}
}

// TestCellReportsRebuild: cell aggregates rebuilt from stored rows
// match aggregates accumulated directly from the reference rows via
// the same Add/Finalize path, in canonical sort order.
func TestCellReportsRebuild(t *testing.T) {
	b, ref, _, _ := genStore(t, 77, 7)
	s, err := Open(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// The reference aggregation, cell-by-cell in insertion order.
	var want []campaign.CellReport
	var cur *campaign.CellReport
	var lastCell campaign.CellInfo
	flush := func() {
		if cur != nil {
			cur.Finalize()
			want = append(want, *cur)
			cur = nil
		}
	}
	for i, r := range ref {
		if i == 0 || r.cell != lastCell {
			flush()
			cur = &campaign.CellReport{
				Workload: r.cell.Workload, Scheme: r.cell.Scheme,
				System: r.cell.System, FaultModel: r.cell.FaultModel,
				ProfileOps: r.cell.ProfileOps, GrainOps: r.cell.GrainOps,
			}
			lastCell = r.cell
		}
		cur.Add(r.row)
	}
	flush()
	campaign.SortCells(want)

	got, err := s.CellReports(Filter{})
	if err != nil {
		t.Fatalf("CellReports: %v", err)
	}
	// genStore can emit zero-injection cells, which produce empty
	// reports the reference loop above never starts; drop them.
	var gotNonEmpty []campaign.CellReport
	for _, c := range got {
		if c.Injections > 0 {
			gotNonEmpty = append(gotNonEmpty, c)
		}
	}
	if len(gotNonEmpty) != len(want) {
		t.Fatalf("CellReports: %d non-empty cells, want %d", len(gotNonEmpty), len(want))
	}
	for i := range want {
		if gotNonEmpty[i] != want[i] {
			t.Errorf("cell %d:\n got %+v\nwant %+v", i, gotNonEmpty[i], want[i])
		}
	}
}
