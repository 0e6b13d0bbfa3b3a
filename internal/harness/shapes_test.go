package harness

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adcc/internal/bench"
	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/report"
)

// TestRuntimeShape holds the five experiments of the runtime shape to
// what the one driver promises: a row per variant and case, every native
// row normalized to exactly 1, and the collector names the committed
// baseline carries — so a renamed label fails here, not as "missing" in
// CI's benchdiff.
func TestRuntimeShape(t *testing.T) {
	env, err := report.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := env.BenchSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		variants, cases int
	}{
		{"fig4", 1, 7},
		{"fig8", 3, 7},
		{"fig13", 1, 7},
		// The families add their two rejected variants to the seven cases.
		{"stencil", 1, 9},
		{"kvlog", 1, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := ByName(tc.name)
			col := bench.NewCollector()
			tab, err := e.Run(context.Background(), Options{Scale: baseline.Scale, Collector: col})
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) != tc.variants*tc.cases {
				t.Fatalf("rows = %d, want %d variants x %d cases", len(tab.Rows), tc.variants, tc.cases)
			}
			caseCol, valCol := slices.Index(tab.Headers, "Case"), slices.Index(tab.Headers, "Normalized")
			if caseCol < 0 || valCol != caseCol+3 {
				t.Fatalf("headers %v lack the Case System Time(ms) Normalized block", tab.Headers)
			}
			natives := 0
			for _, r := range tab.Rows {
				if len(r) != len(tab.Headers) {
					t.Fatalf("row %v has %d cells, want %d", r, len(r), len(tab.Headers))
				}
				if r[caseCol] == caseNative {
					natives++
					if r[valCol] != "1.000" {
						t.Errorf("native row %v normalizes to %s", r, r[valCol])
					}
				}
			}
			if natives != tc.variants {
				t.Errorf("%d native rows, want one per variant (%d)", natives, tc.variants)
			}

			var got, want []string
			for _, r := range col.Results() {
				got = append(got, r.Name)
			}
			for _, r := range baseline.Results {
				if strings.HasPrefix(r.Name, tc.name+"/") {
					want = append(want, r.Name)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("collector names\n%v\nwant BENCH_baseline.json's\n%v", got, want)
			}
		})
	}
}

// TestRunCrashTest drives the crash-test helper directly: a trigger
// occurrence inside the run yields every measurement, one past the end
// yields the "did not crash" error and none.
func TestRunCrashTest(t *testing.T) {
	const iters = 4
	run := func(occurrence int) (crashTest, error) {
		w := &core.CGWorkload{N: 300, Opts: core.CGOptions{MaxIter: iters, Seed: 1}}
		return runCrashTest(newMachine(crash.NVMOnly, cgLLCBytes, 16), w, core.TriggerCGIterEnd, occurrence)
	}
	ct, err := run(iters)
	if err != nil {
		t.Fatal(err)
	}
	if ct.from < 1 || ct.from > iters+1 || ct.recoverNS <= 0 || ct.crashed == nil || ct.done == nil {
		t.Errorf("crash at the last iteration measured %+v", ct)
	}
	ct, err = run(iters + 1)
	if err == nil || !strings.Contains(err.Error(), "did not crash") {
		t.Fatalf("occurrence past the end: err = %v, want the did-not-crash error", err)
	}
	if !reflect.DeepEqual(ct, crashTest{}) {
		t.Errorf("occurrence past the end still measured %+v", ct)
	}
}

// TestFig8OffGridScales runs Figure 8 and the summary that embeds it at
// scales whose n = 640*scale is not a multiple of 40, where the ranks
// n/40, n/20, n/8 used not to divide n and the multiplication panicked —
// inside a worker goroutine when parallel, killing the process. (The
// same holds at any scale; these are the cheap ones.)
func TestFig8OffGridScales(t *testing.T) {
	for _, tc := range []struct {
		name     string
		scale    float64
		parallel int
	}{
		{"fig8", 0.3, 1}, {"fig8", 0.3, 4},
		{"fig8", 0.37, 1}, {"fig8", 0.37, 4},
		{"fig8", 0.45, 1}, {"fig8", 0.45, 4},
		{"summary", 0.26, 4},
	} {
		e, _ := ByName(tc.name)
		tab, err := e.Run(context.Background(), Options{Scale: tc.scale, Parallel: tc.parallel})
		if err != nil {
			t.Fatalf("%s scale=%v parallel=%d: %v", tc.name, tc.scale, tc.parallel, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s scale=%v parallel=%d: empty table", tc.name, tc.scale, tc.parallel)
		}
	}
}
