package harness

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"adcc/internal/bench"
	"adcc/internal/engine"
)

// smallOpts runs every experiment at CI scale.
var smallOpts = Options{Scale: 0.05}

func TestAllExperimentsRegistered(t *testing.T) {
	exps := All()
	if len(exps) < 10 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"fig3", "fig4", "fig7", "fig8", "fig10", "fig12", "fig13"} {
		if !seen[want] {
			t.Fatalf("missing paper experiment %q", want)
		}
	}
	if _, ok := ByName("fig3"); !ok {
		t.Fatal("ByName(fig3) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted unknown name")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Name: "x", Title: "t", Headers: []string{"A", "Blong"}}
	tab.AddRow("v", 1.5)
	tab.AddRow(12345, "w")
	tab.AddNote("n=%d", 3)
	s := tab.String()
	for _, want := range []string{"== x: t ==", "A", "Blong", "1.500", "12345", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "+"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig3SmallScale(t *testing.T) {
	classes, err := fig3Classes(context.Background(), smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 5 {
		t.Fatalf("fig3 rows = %d, want 5 classes", len(classes))
	}
	// Losses must not increase with class size (paper's headline
	// observation): first class >= last class.
	if first, last := classes[0].lost, classes[4].lost; last > first {
		t.Fatalf("iterations lost grew with size: %v -> %v", first, last)
	}
}

// The row count, native normalization and collector names of the runtime
// figures are TestRuntimeShape's; the per-figure tests keep what is
// specific to each.
func TestFig4SmallScale(t *testing.T) {
	tab, err := RunFig4(context.Background(), smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) float64 {
		for _, r := range tab.Rows {
			if r[0] == label {
				return parseCell(t, r[3])
			}
		}
		t.Fatalf("case %s missing", label)
		return 0
	}
	if get(casePMEM) < get(caseCkptNVM) {
		t.Fatal("PMEM should exceed NVM checkpoint")
	}
	if get(caseCkptHDD) < get(caseCkptNVM) {
		t.Fatal("HDD checkpoint should exceed NVM checkpoint")
	}
	if get(caseAlgoNVM) > 1.15 {
		t.Fatalf("algo overhead %.3f too large at small scale", get(caseAlgoNVM))
	}
}

func TestFig7SmallScale(t *testing.T) {
	tab, err := RunFig7(context.Background(), smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("fig7 rows = %d, want 4 sizes x 2 tests", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		lost := parseCell(t, r[2])
		if lost < 0 || lost > 4 {
			t.Fatalf("units lost %v out of [0,4]: %v", lost, r)
		}
	}
}

func TestFig8SmallScale(t *testing.T) {
	tab, err := RunFig8(context.Background(), smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The lead cell is the variant's rank: three distinct ones, each
	// heading a contiguous block of rows.
	var ranks []string
	for _, r := range tab.Rows {
		if len(ranks) == 0 || ranks[len(ranks)-1] != r[0] {
			ranks = append(ranks, r[0])
		}
	}
	if len(ranks) != 3 || ranks[0] == ranks[2] {
		t.Fatalf("fig8 rank blocks = %v, want three ranks", ranks)
	}
}

func TestFig10And12SmallScale(t *testing.T) {
	c10, err := compareMC(context.Background(), "fig10", smallOpts, engine.SchemeAlgoNaive)
	if err != nil {
		t.Fatal(err)
	}
	c12, err := compareMC(context.Background(), "fig12", smallOpts, engine.SchemeAlgoNVM)
	if err != nil {
		t.Fatal(err)
	}
	d10, d12 := maxDelta(c10.restart, c10.noCrash), maxDelta(c12.restart, c12.noCrash)
	if d12 > d10 {
		t.Fatalf("selective flushing (%.2fpp) should beat naive (%.2fpp)", d12, d10)
	}
}

func TestFig13SmallScale(t *testing.T) {
	tab, err := RunFig13(context.Background(), smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	// At CI scale the grids fit in the LLC, so lookups are unrealistically
	// cheap relative to the fixed flush cost; the bound here is loose.
	// The paper-scale bound (<1% overhead) is asserted by the full run
	// recorded in EXPERIMENTS.md.
	for _, r := range tab.Rows {
		if r[0] == caseAlgoNVM {
			if v := parseCell(t, r[3]); v > 1.25 {
				t.Fatalf("algo-selective normalized %v, want ~1.0", v)
			}
		}
	}
}

// TestStencilSmallScale runs both extension families (the name predates
// the kvlog half): the family's extra columns, the ordering of the
// mechanisms' costs, and a verified crash test recorded on the
// collector.
func TestStencilSmallScale(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(context.Context, Options) (*Table, error)
		cols int
		// algoCeil bounds the selective-flush overhead where the design
		// is near-free (two lines a sweep); 0 leaves it unchecked.
		algoCeil float64
	}{
		{"stencil", RunStencil, 4, 1.15},
		{"kvlog", RunKVLog, 7, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := smallOpts
			o.Collector = bench.NewCollector()
			tab, err := tc.run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			get := func(label string) float64 {
				for _, r := range tab.Rows {
					if r[0] == label {
						if len(r) != tc.cols {
							t.Fatalf("case %s has %d columns, want %d", label, len(r), tc.cols)
						}
						return parseCell(t, r[3])
					}
				}
				t.Fatalf("case %s missing", label)
				return 0
			}
			if get(casePMEM) < get(caseCkptNVM) {
				t.Fatal("PMEM should exceed NVM checkpoint")
			}
			if v := get(caseAlgoNVM); tc.algoCeil > 0 && v > tc.algoCeil {
				t.Fatalf("algo-selective overhead %.3f too large", v)
			}
			// Every-iteration flushing must cost more than selective
			// flushing.
			if get("algo-every-iter") <= get(caseAlgoNVM) {
				t.Fatal("every-iteration flushing should exceed selective")
			}
			if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "verified") {
				t.Fatalf("crash test note does not report a verified recovery: %q", tab.Notes)
			}
			var rec *bench.Result
			results := o.Collector.Results()
			for i, r := range results {
				if r.Name == tc.name+"/recovery" {
					rec = &results[i]
				}
			}
			if rec == nil || rec.RecoveryNS <= 0 || rec.SimNS < rec.RecoveryNS {
				t.Fatalf("%s/recovery not recorded on the collector: %+v", tc.name, rec)
			}
		})
	}
}

func TestCLWBAblationSmallScale(t *testing.T) {
	tab, err := RunCLWBAblation(context.Background(), smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("clwb rows = %d, want 3 workloads x 2 instructions", len(tab.Rows))
	}
	// Every CLWB row must be no slower than its CLFLUSH baseline.
	for i := 1; i < len(tab.Rows); i += 2 {
		if v := parseCell(t, tab.Rows[i][3]); v > 1.0001 {
			t.Fatalf("CLWB slower than CLFLUSH for %s: %v", tab.Rows[i][0], v)
		}
	}
}

func TestSummaryRunsAtSmallScale(t *testing.T) {
	// Claims 1-3 are defined at paper scale only; at CI scale they SKIP,
	// claim 4 (which holds at every scale) PASSes, and the table carries
	// the scale warning.
	tab, err := RunSummary(context.Background(), smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("summary rows = %d, want 4 claims", len(tab.Rows))
	}
	for i, want := range []string{"SKIP", "SKIP", "SKIP", "PASS"} {
		if got := tab.Rows[i][2]; got != want {
			t.Errorf("claim %d: status %s, want %s (%v)", i+1, got, want, tab.Rows[i])
		}
	}
	warned := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "scale 1.0") {
			warned = true
		}
	}
	if !warned {
		t.Fatal("summary at small scale must warn about scaling")
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Name: "x", Title: "t", Headers: []string{"A", "B"}}
	tab.AddRow("a,b", 2)
	tab.AddNote("hello")
	var b strings.Builder
	tab.FprintCSV(&b)
	out := b.String()
	for _, want := range []string{"A,B", "\"a,b\",2", "# hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestAblationsSmallScale(t *testing.T) {
	for _, name := range []string{"cg-cache", "mc-flush", "mm-k"} {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("missing ablation %s", name)
		}
		tab, err := e.Run(context.Background(), smallOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", name)
		}
	}
}
