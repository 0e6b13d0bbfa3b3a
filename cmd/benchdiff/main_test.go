package main

import (
	"path/filepath"
	"strings"
	"testing"

	"adcc/pkg/adcc"
)

// writeSuite writes a one-row bench envelope recorded at scale.
func writeSuite(t *testing.T, name string, scale float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	suite := adcc.NewSuite(scale, []adcc.Result{{Name: "fig4/native", SimNS: 1000}})
	if err := adcc.NewBenchReport(suite).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScaleMismatchIsRefused: harness sim metrics grow with the scale,
// so two suites recorded at different scales have no valid reading —
// exit 2 and no comparison, where equal scales compare and exit 0.
func TestScaleMismatchIsRefused(t *testing.T) {
	base := writeSuite(t, "base.json", 0.05)
	var stdout, stderr strings.Builder
	if code := run([]string{base, writeSuite(t, "cand.json", 0.1)}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d across scales, want 2", code)
	}
	if !strings.Contains(stderr.String(), "different scales (0.05 vs 0.1)") || stdout.Len() != 0 {
		t.Errorf("stderr %q, stdout %q", stderr.String(), stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-sim-threshold", "0", base, writeSuite(t, "same.json", 0.05)}, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d at equal scales, want 0\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "compared 1 metrics across 1 benchmarks: 0 regressed") {
		t.Errorf("no comparison printed:\n%s", stdout.String())
	}
}
