package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"adcc/pkg/adcc"
)

func samplesOf(slice time.Duration, walls ...time.Duration) []sample {
	out := make([]sample, len(walls))
	for i, w := range walls {
		out[i] = sample{wall: w, slice: slice}
	}
	return out
}

// The estimator takes, per unit, the median over passes of wall/slice:
// one pass that ran while the host was slow moves neither the unit's
// ratio (its slices slowed with it) nor the median.
func TestMedianOfRatios(t *testing.T) {
	s := samplesOf(10*time.Millisecond, 20*time.Millisecond, 21*time.Millisecond, 19*time.Millisecond)
	s = append(s, sample{wall: 60 * time.Millisecond, slice: 30 * time.Millisecond}) // slow host, same ratio
	s = append(s, sample{wall: 90 * time.Millisecond, slice: 10 * time.Millisecond}) // an outlier
	if got := medianRatio(s); got != 2.0 {
		t.Errorf("medianRatio = %v, want 2", got)
	}
	if got := s[0].refSeconds(10 * time.Millisecond); math.Abs(got-refSliceS) > 1e-12 {
		t.Errorf("one slice of wall time = %v reference seconds, want %v", got, refSliceS)
	}
}

// A pass is the sum over units of each unit's own median, not the median
// of pass sums: an outlier in one unit of one pass is dropped without
// dropping the pass's other units.
func TestSumOfUnitMedians(t *testing.T) {
	ms := time.Millisecond
	passes := [][]sample{
		{{wall: 10 * ms, slice: 10 * ms}, {wall: 30 * ms, slice: 10 * ms}},
		{{wall: 50 * ms, slice: 10 * ms}, {wall: 30 * ms, slice: 10 * ms}},
		{{wall: 10 * ms, slice: 10 * ms}, {wall: 90 * ms, slice: 10 * ms}},
	}
	if got := sumMedianRatios(passes); got != 4.0 {
		t.Errorf("sumMedianRatios = %v, want 4", got)
	}
	if got := medianRatio(column(passes, 1)); got != 3.0 {
		t.Errorf("unit 1 median = %v, want 3", got)
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if median(v) != 3 || quantile(v, 0) != 1 || quantile(v, 1) != 5 || quantile(v, 0.25) != 2 {
		t.Errorf("quantiles of %v wrong", v)
	}
	// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
	if got := iqrSpread(v); got != 1.0 {
		t.Errorf("iqrSpread = %v, want (4.5-1.5)/3", got)
	}
	// statistics.quantiles([10,11,12,13,14,15,16,17,18,19], n=4) == [11.75, 14.5, 17.25]
	ten := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	if got, want := iqrSpread(ten), 5.5/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread = %v, want %v", got, want)
	}
}

// Self time is a span's duration minus what its children cover, with
// overlapping children counted once and clipped to the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "workload", StartNS: 0, EndNS: 100, Parent: -1},
		{ID: 1, Name: "unit", StartNS: 10, EndNS: 90, Parent: 0},
		{ID: 2, Name: "a", StartNS: 10, EndNS: 40, Parent: 1},
		{ID: 3, Name: "b", StartNS: 30, EndNS: 60, Parent: 1},  // overlaps a by 10
		{ID: 4, Name: "c", StartNS: 80, EndNS: 120, Parent: 1}, // runs past the parent
		{ID: 5, Name: "leaf", StartNS: 12, EndNS: 20, Parent: 2},
	}
	want := []int64{20, 20, 22, 30, 40, 8}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if c := coverage(spans, 1); c != 0.75 {
		t.Errorf("coverage of unit = %v, want 0.75", c)
	}
}

// coverage is the share of span id's duration that its children cover.
func coverage(spans []span, id int) float64 {
	d := spans[id].EndNS - spans[id].StartNS
	if d <= 0 {
		return 1
	}
	return 1 - float64(selfTimes(spans)[id])/float64(d)
}

// benchmarkJSON is the declaration at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json declares exactly what the program prints.
func TestDeclarationMatchesProgram(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, the program %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		seen[d.name] = true
	}
	for i, d := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, the program %+v", i, j, d)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", name)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
}

// runQuick runs the program in process on tiny inputs and returns its
// exit code, its output, and the decoded result line.
func runQuick(t *testing.T, args ...string) (int, string, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(append([]string{"-quick", "-seconds", "0.2", "-dir", t.TempDir()}, args...), &stdout, &stderr)
	line, err := lastResult(stdout.Bytes())
	if err != nil {
		t.Fatalf("no result line: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, stdout.String() + stderr.String(), line
}

// checkPrinted requires that the run printed every declared metric
// exactly once with its unit and a finite value, and no other metric.
func checkPrinted(t *testing.T, out string, line resultLine, decls []metricDecl) {
	t.Helper()
	if len(line.Metrics) != len(decls) {
		t.Errorf("result has %d metrics, %d declared", len(line.Metrics), len(decls))
	}
	for _, d := range decls {
		mv, ok := line.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not in the result", d.name)
			continue
		}
		if mv.Unit != d.unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.name, mv.Value, mv.Unit, d.unit)
		}
		n := 0
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
				n++
			}
		}
		if n != 1 {
			t.Errorf("metric %s printed by name with its unit %d times, want once", d.name, n)
		}
	}
}

func TestQuickMetricRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, out, line := runQuick(t, "-workload", w.name, "-trace", "0")
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\n%s", code, line, out)
			}
			checkPrinted(t, out, line, endToEnd)
			for _, d := range endToEnd {
				if line.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, line.Metrics[d.name].Value)
				}
			}
		})
	}
}

func TestQuickTracedRun(t *testing.T) {
	dir := t.TempDir()
	code, out, line := runQuick(t, "-workload", "replay-fault", "-trace", "1", "-trace-out", dir+"/trace.json")
	if code != 0 || !line.Correct {
		t.Fatalf("exit %d, result %+v\n%s", code, line, out)
	}
	checkPrinted(t, out, line, perLayer)
	for _, name := range []string{"campaign.cell_ms_p50", "sim.rework_ops_total", "crash.capture_us", "cache.load_ns",
		"resultstore.encode_rows_per_s", "adccd.report_us", "go.mallocs_per_op", "bench.raw_wall_s"} {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on a replay workload, want > 0", name, line.Metrics[name].Value)
		}
	}

	b, err := os.ReadFile(dir + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	// Every layer-driver unit is covered by the spans of its calls.
	drivers := -1
	for _, s := range doc.Spans {
		if s.Name == "layer drivers" {
			drivers = s.ID
		}
	}
	units := 0
	for _, s := range doc.Spans {
		if s.Parent != drivers || strings.HasSuffix(s.Name, "inputs") {
			continue
		}
		units++
		if c := coverage(doc.Spans, s.ID); c < 0.9 {
			t.Errorf("children cover %.0f%% of driver unit %q, want at least 90%%", c*100, s.Name)
		}
	}
	if units == 0 {
		t.Error("no layer-driver units in the trace")
	}
}

// tamperedWorkload adds a workload whose outputs a wrapper corrupts, so
// that the program's own exit code and failure count can be observed.
func tamperedWorkload(t *testing.T, name string, build func(cfg config) (*instance, error)) {
	t.Helper()
	workloads = append(workloads, &workloadDef{name: name, why: "negative test", build: build})
	t.Cleanup(func() { workloads = workloads[:len(workloads)-1] })
}

// Flipping one outcome count of one report fails the run and counts the
// unit's operations, and only those, as failed.
func TestTamperedOutcomeCountFails(t *testing.T) {
	unitOps := 0
	tamperedWorkload(t, "tampered-replay", func(cfg config) (*instance, error) {
		w, err := newReplay(scaleSpecs(cfg, []adcc.CampaignSpec{
			{Workloads: []string{"kvlog"}}, {Workloads: []string{"mm"}},
		}))
		if err != nil {
			return nil, err
		}
		w.units[0].tamper = func(rep *adcc.CampaignReport) {
			rep.Cells[0].Clean++
			unitOps = rep.Injections
		}
		return w.instance(), nil
	})
	code, out, line := runQuick(t, "-workload", "tampered-replay")
	if code == 0 || line.Correct {
		t.Fatalf("exit %d, correct %v: a flipped outcome count must fail the run\n%s", code, line.Correct, out)
	}
	passes := 1 + 2 // one warm-up, two measured
	if line.Failed != passes*unitOps || line.Failed >= line.Attempted {
		t.Errorf("failed = %d of %d, want the tampered unit's %d ops on each of %d passes", line.Failed, line.Attempted, unitOps, passes)
	}
	if !strings.Contains(out, "outcomes sum to") {
		t.Errorf("the failed check is not reported:\n%s", out)
	}
}

// Flipping one byte of a served report fails the run and counts the
// fresh submission as failed.
func TestTamperedServedReportFails(t *testing.T) {
	tamperedWorkload(t, "tampered-service", func(cfg config) (*instance, error) {
		s, err := newService(cfg)
		if err != nil {
			return nil, err
		}
		s.tamperReport = func(b []byte) []byte {
			b = append([]byte(nil), b...)
			i := bytes.Index(b, []byte(`"recover_sim_ns": `)) + len(`"recover_sim_ns": `)
			b[i] ^= 1 // one digit of one cell's simulated recovery time
			return b
		}
		return s.instance(), nil
	})
	code, out, line := runQuick(t, "-workload", "tampered-service")
	if code == 0 || line.Correct {
		t.Fatalf("exit %d, correct %v: a flipped report byte must fail the run\n%s", code, line.Correct, out)
	}
	if passes := 1 + 2; line.Failed != passes {
		t.Errorf("failed = %d, want the %d fresh submissions", line.Failed, passes)
	}
	if !strings.Contains(out, "differs from an in-process run") {
		t.Errorf("the failed check is not reported:\n%s", out)
	}
}
