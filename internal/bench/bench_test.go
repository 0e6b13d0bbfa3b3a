package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func sampleSuite() Suite {
	return NewSuite(0.05, []Result{
		{Name: "fig4/native", SimNS: 12155604},
		{Name: "cache/flush", SimNS: 371200, SimFlushes: 4096},
		{Name: "fig3/class-S", SimNS: 349947, RecoveryNS: 72300},
		{Name: "sparse/spmv", SimNS: 1585656},
	})
}

// TestSuiteGolden pins the canonical JSON encoding byte for byte: the
// schema surface cmd/benchdiff and CI artifacts depend on.
func TestSuiteGolden(t *testing.T) {
	got, err := sampleSuite().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "suite_golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate by writing the EncodeJSON output to %s)", err, golden)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoding drifted from golden file\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestSuiteRoundTrip checks decode(encode(s)) == s and that a second
// encode is byte-stable.
func TestSuiteRoundTrip(t *testing.T) {
	s := sampleSuite()
	b1, err := s.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Suite
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := back.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("round trip not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
	if len(back.Results) != len(s.Results) {
		t.Fatalf("round trip lost results: %d != %d", len(back.Results), len(s.Results))
	}
	for i := range back.Results {
		if back.Results[i] != s.Results[i] {
			t.Errorf("result %d changed: %+v != %+v", i, back.Results[i], s.Results[i])
		}
	}
}

// TestReadFileRejectsSchema ensures mismatched schema tags are refused.
func TestReadFileRejectsSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("expected schema error, got nil")
	}
}

// TestReadFileIgnoresRetiredWallKeys: a suite written before the five
// host wall-clock keys were retired still reads, and diffs clean against
// the same rows without them.
func TestReadFileIgnoresRetiredWallKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"schema":"adcc-bench/v1","scale":0.05,"results":[
		{"name":"cache/flush","iterations":1000,"ns_per_op":48.5,"allocs_per_op":1,"bytes_per_op":64,"sim_ns":371200,"sim_flushes":4096},
		{"name":"campaign/mc/native@NVM-only","sim_ns":30,"injections":8,"failures":2,"wall_ns_per_injection":1429467.375}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	want := NewSuite(0.05, []Result{
		{Name: "cache/flush", SimNS: 371200, SimFlushes: 4096},
		{Name: "campaign/mc/native@NVM-only", SimNS: 30, Injections: 8, Failures: 2},
	})
	rep := Diff(got, want, DiffOptions{SimThreshold: 0})
	if rep.HasRegression() || len(rep.Added) != 0 || len(rep.Deltas) != 4 {
		t.Errorf("old-format suite does not diff clean: %+v", rep)
	}
}

// TestNewSuiteSortsAndCopies verifies order independence of the
// canonical form.
func TestNewSuiteSortsAndCopies(t *testing.T) {
	in := []Result{{Name: "b"}, {Name: "a"}, {Name: "c"}}
	s := NewSuite(1, in)
	if s.Results[0].Name != "a" || s.Results[2].Name != "c" {
		t.Errorf("not sorted: %+v", s.Results)
	}
	in[0].Name = "zzz" // mutating the input must not affect the suite
	if s.Results[1].Name != "b" {
		t.Errorf("suite shares backing array with input")
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Record(Result{Name: "x"}) // must not panic
	if c.Len() != 0 || c.Results() != nil {
		t.Errorf("nil collector not empty")
	}
}

// TestCollectorDeterministicUnderParallel records the same results from
// 4 goroutines in scrambled orders and asserts the snapshot equals the
// serial one — the property that keeps `adccbench -bench -parallel N`
// output byte-identical to a serial run.
func TestCollectorDeterministicUnderParallel(t *testing.T) {
	results := make([]Result, 64)
	for i := range results {
		results[i] = Result{Name: fmt.Sprintf("case-%02d", i), SimNS: int64(1000 + i)}
	}

	serial := NewCollector()
	for _, r := range results {
		serial.Record(r)
	}

	parallel := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker records a strided, rotated subset so arrival
			// order differs from the serial loop.
			for i := 0; i < len(results); i++ {
				idx := (i*7 + w*13) % len(results)
				if idx%4 == w {
					parallel.Record(results[idx])
				}
			}
		}(w)
	}
	wg.Wait()

	a, err := NewSuite(0.05, serial.Results()).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuite(0.05, parallel.Results()).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("parallel collection not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func diffOf(base, cand Suite) Report {
	return Diff(base, cand, DiffOptions{SimThreshold: 0.02})
}

func TestDiffNoRegression(t *testing.T) {
	base := NewSuite(1, []Result{{Name: "k", SimNS: 1000, SimFlushes: 100}})
	cand := NewSuite(1, []Result{{Name: "k", SimNS: 1010, SimFlushes: 100}})
	rep := diffOf(base, cand)
	if rep.HasRegression() {
		t.Errorf("1%% simulated-time growth under a 2%% threshold flagged: %+v", rep)
	}
}

// TestDiffMeasuredZeroSimFlushes: a probe whose sim_flushes goes from a
// measured 0 to N is a regression (zero is a real value when the probe
// ran), and N to 0 is an improvement.
func TestDiffMeasuredZeroSimFlushes(t *testing.T) {
	base := NewSuite(1, []Result{{Name: "k", SimNS: 1000, SimFlushes: 0}})
	cand := NewSuite(1, []Result{{Name: "k", SimNS: 1000, SimFlushes: 64}})
	if !diffOf(base, cand).HasRegression() {
		t.Error("sim_flushes 0 -> 64 not flagged as a regression")
	}
	if back := diffOf(cand, base); back.HasRegression() {
		t.Errorf("sim_flushes 64 -> 0 flagged as a regression: %+v", back)
	}
}

// TestDiffLostMetricIsRegression: a metric family the baseline
// guaranteed (here the recovery time) disappearing from a surviving
// benchmark name is flagged like a missing benchmark.
func TestDiffLostMetricIsRegression(t *testing.T) {
	base := NewSuite(1, []Result{{Name: "k", SimNS: 1000, RecoveryNS: 100}})
	cand := NewSuite(1, []Result{{Name: "k", SimNS: 1000}})
	rep := diffOf(base, cand)
	if !rep.HasRegression() {
		t.Errorf("dropped recovery metric not flagged: %+v", rep)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "k [recovery_sim_ns]" {
		t.Errorf("Missing = %v, want [k [recovery_sim_ns]]", rep.Missing)
	}
}

// TestDiffZeroThresholdIsExact: an explicit zero threshold demands
// exact equality rather than silently falling back to a default.
func TestDiffZeroThresholdIsExact(t *testing.T) {
	base := NewSuite(1, []Result{{Name: "k", SimNS: 1000}})
	cand := NewSuite(1, []Result{{Name: "k", SimNS: 1001}})
	rep := Diff(base, cand, DiffOptions{SimThreshold: 0})
	if !rep.HasRegression() {
		t.Error("0.1% sim drift under an explicit zero threshold not flagged")
	}
}

func TestDiffSimRegressionIsTight(t *testing.T) {
	base := NewSuite(1, []Result{{Name: "k", SimNS: 1000}})
	cand := NewSuite(1, []Result{{Name: "k", SimNS: 1050}})
	rep := diffOf(base, cand)
	if !rep.HasRegression() {
		t.Error("5% simulated-time growth under a 2% threshold not flagged")
	}
}

func TestDiffImprovementIsNotRegression(t *testing.T) {
	base := NewSuite(1, []Result{{Name: "k", SimNS: 1000, SimFlushes: 100}})
	cand := NewSuite(1, []Result{{Name: "k", SimNS: 400, SimFlushes: 100}})
	rep := diffOf(base, cand)
	if rep.HasRegression() {
		t.Errorf("improvement flagged as regression: %+v", rep)
	}
	improved := false
	for _, d := range rep.Deltas {
		if d.Metric == "sim_ns" && d.Improved {
			improved = true
		}
	}
	if !improved {
		t.Error("2.5x improvement not marked Improved")
	}
}

func TestDiffMissingBenchmarkIsRegression(t *testing.T) {
	base := NewSuite(1, []Result{{Name: "gone", SimNS: 100}, {Name: "kept", SimNS: 100}})
	cand := NewSuite(1, []Result{{Name: "kept", SimNS: 100}, {Name: "new", SimNS: 5}})
	rep := diffOf(base, cand)
	if !rep.HasRegression() {
		t.Error("missing benchmark not treated as a regression")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "gone" {
		t.Errorf("Missing = %v, want [gone]", rep.Missing)
	}
	if len(rep.Added) != 1 || rep.Added[0] != "new" {
		t.Errorf("Added = %v, want [new]", rep.Added)
	}
}

// TestDiffSkipsUnmeasuredMetrics: a metric the baseline never measured
// is not compared, so a harness case that gains a recovery time diffs
// cleanly against its older self.
func TestDiffSkipsUnmeasuredMetrics(t *testing.T) {
	base := NewSuite(1, []Result{{Name: "k", SimNS: 1000}})
	cand := NewSuite(1, []Result{{Name: "k", SimNS: 1000, RecoveryNS: 50}})
	rep := diffOf(base, cand)
	for _, d := range rep.Deltas {
		if d.Metric == "recovery_sim_ns" {
			t.Errorf("compared recovery_sim_ns with no baseline measurement: %+v", d)
		}
	}
	if rep.HasRegression() {
		t.Errorf("unexpected regression: %+v", rep)
	}
}

// TestSuiteValidateDuplicates: a suite with colliding benchmark names
// must be rejected — in the diff's name index the last result would
// silently shadow its twin.
func TestSuiteValidateDuplicates(t *testing.T) {
	ok := NewSuite(1, []Result{{Name: "a"}, {Name: "b"}})
	if err := ok.Validate(); err != nil {
		t.Errorf("distinct names rejected: %v", err)
	}
	dup := NewSuite(1, []Result{{Name: "a"}, {Name: "b"}, {Name: "a"}})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate names accepted")
	} else if !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("error %v does not name the duplicate", err)
	}
}

// TestFormatSummaryLine: the roll-up line reports how much was
// actually compared, not just the deltas' dispositions.
func TestFormatSummaryLine(t *testing.T) {
	base := NewSuite(1, []Result{
		{Name: "k", SimNS: 1000, SimFlushes: 100},
		{Name: "gone", SimNS: 5},
	})
	cand := NewSuite(1, []Result{{Name: "k", SimNS: 2000, SimFlushes: 100}})
	var buf strings.Builder
	diffOf(base, cand).Format(&buf, false)
	out := buf.String()
	if !strings.Contains(out, "compared 2 metrics across 1 benchmarks: 1 regressed, 0 improved, 1 unchanged, 1 missing, 0 added") {
		t.Errorf("summary line missing or wrong:\n%s", out)
	}
}
