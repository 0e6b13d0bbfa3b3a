package harness

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"adcc/internal/engine"
)

// smallClaimInputs gathers the claims' typed inputs from a real
// small-scale run, then brings them to where every claim holds: at CI
// scale fixed costs inflate algo's overhead, so every algo row is put at
// its native time, and Figure 3 is taken at 0.1, a scale whose largest
// class already loses at most two iterations.
func smallClaimInputs(t *testing.T) claimInputs {
	t.Helper()
	ctx := context.Background()
	var in claimInputs
	var err error
	for i, d := range []func(Options) runtimeTable{fig4, fig8, fig13} {
		if _, in.runtime[i], err = runRuntimeTable(ctx, smallOpts, d(smallOpts)); err != nil {
			t.Fatal(err)
		}
		for j, r := range in.runtime[i] {
			if r.scheme.Kind() == engine.KindAlgo {
				in.runtime[i][j].ns = r.baseNS
			}
		}
	}
	if in.fig3, err = fig3Classes(ctx, Options{Scale: 0.1}); err != nil {
		t.Fatal(err)
	}
	if in.fig10, err = compareMC(ctx, "fig10", smallOpts, engine.SchemeAlgoNaive); err != nil {
		t.Fatal(err)
	}
	if in.fig12, err = compareMC(ctx, "fig12", smallOpts, engine.SchemeAlgoNVM); err != nil {
		t.Fatal(err)
	}
	return in
}

// clone copies in deeply enough that a mutation of one case cannot leak
// into the next.
func (in claimInputs) clone() claimInputs {
	for i := range in.runtime {
		in.runtime[i] = slices.Clone(in.runtime[i])
	}
	in.fig3 = slices.Clone(in.fig3)
	return in
}

// statuses are the Status cells of a summary table, in claim order.
func statuses(tab *Table) []string {
	var out []string
	for _, r := range tab.Rows {
		out = append(out, r[2])
	}
	return out
}

// TestClaimChecks feeds each claim typed inputs from a real run, brought
// to where all four hold, and then the mutation that should break just
// that claim: it must turn PASS into FAIL at paper scale, make the
// summary's error name the claim, and SKIP rather than FAIL below the
// claim's scale.
func TestClaimChecks(t *testing.T) {
	base := smallClaimInputs(t)
	tab, err := summarize(base.clone(), 1)
	if err != nil {
		t.Fatalf("unmutated inputs: %v\n%s", err, tab)
	}
	if got := statuses(tab); !slices.Equal(got, []string{"PASS", "PASS", "PASS", "PASS"}) {
		t.Fatalf("unmutated inputs: statuses %v, want all PASS\n%s", got, tab)
	}

	for _, tc := range []struct {
		claim  int
		name   string
		mutate func(in *claimInputs)
	}{
		{1, "algo row 10% over native", func(in *claimInputs) {
			rows := in.runtime[0]
			i := slices.IndexFunc(rows, func(r runtimeRow) bool { return r.scheme.Kind() == engine.KindAlgo })
			rows[i].ns = rows[i].baseNS * 110 / 100
		}},
		{2, "first and last Figure 3 classes swapped", func(in *claimInputs) {
			f := in.fig3
			f[0], f[len(f)-1] = f[len(f)-1], f[0]
		}},
		{3, "algo 0.06 pts above the best checkpoint row", func(in *claimInputs) {
			// The claim compares the best algo row, so every algo row of
			// Figure 13 moves.
			rows, best := in.runtime[2], math.Inf(1)
			for _, r := range rows {
				if k := r.scheme.Kind(); k == engine.KindCheckpoint || k == engine.KindPMEM {
					best = min(best, r.normalized())
				}
			}
			for i, r := range rows {
				if r.scheme.Kind() == engine.KindAlgo {
					rows[i].ns = int64(math.Ceil(float64(r.baseNS) * (best + 0.0006)))
				}
			}
		}},
		{4, "naive percentages where the selective ones go", func(in *claimInputs) {
			in.fig12 = in.fig10
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := base.clone()
			tc.mutate(&in)
			want := []string{"PASS", "PASS", "PASS", "PASS"}
			want[tc.claim-1] = "FAIL"
			tab, err := summarize(in, 1)
			if got := statuses(tab); !slices.Equal(got, want) {
				t.Fatalf("statuses %v, want %v\n%s", got, want, tab)
			}
			if name := fmt.Sprintf("claim %d", tc.claim); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("err = %v, want one naming %s", err, name)
			}

			// Below the claim's scale the same inputs SKIP: no FAIL, no
			// error. Claim 4 is defined at every scale and still fails.
			tab, err = summarize(in, smallOpts.Scale)
			got := statuses(tab)[tc.claim-1]
			if claims[tc.claim-1].minScale > smallOpts.Scale {
				if got != "SKIP" || err != nil {
					t.Fatalf("at scale %g: status %s, err %v; want SKIP and no error", smallOpts.Scale, got, err)
				}
			} else if got != "FAIL" || err == nil {
				t.Fatalf("at scale %g: status %s, err %v; want FAIL and an error", smallOpts.Scale, got, err)
			}
		})
	}
}
