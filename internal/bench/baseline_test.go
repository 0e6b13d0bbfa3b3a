package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// readStrict decodes a committed ledger file with no unknown key
// allowed anywhere, so a host wall-clock key (or any key Result does not
// carry) creeping back into it fails here.
func readStrict(t *testing.T, path string, into any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// readBaseline strictly decodes BENCH_baseline.json at the repo root: a
// bench suite inside the adcc-report/v1 envelope (internal/report,
// which imports this package).
func readBaseline(t *testing.T) Suite {
	t.Helper()
	var env struct {
		Schema string `json:"schema"`
		Kind   string `json:"kind"`
		Bench  Suite  `json:"bench"`
	}
	readStrict(t, filepath.Join("..", "..", "BENCH_baseline.json"), &env)
	if env.Kind != "bench" || env.Bench.Schema != SchemaVersion {
		t.Fatalf("BENCH_baseline.json: kind %q, bench schema %q", env.Kind, env.Bench.Schema)
	}
	return env.Bench
}

// TestBaselineDeterministicOnly: the committed ledger and the encoding
// golden hold nothing but Result's deterministic fields, and every row
// measured something.
func TestBaselineDeterministicOnly(t *testing.T) {
	var golden Suite
	readStrict(t, filepath.Join("testdata", "suite_golden.json"), &golden)
	for _, s := range []Suite{readBaseline(t), golden} {
		if len(s.Results) == 0 {
			t.Error("suite has no rows")
		}
		for _, r := range s.Results {
			if r.SimNS == 0 && r.Injections == 0 {
				t.Errorf("row %q carries neither sim_ns nor injections", r.Name)
			}
		}
	}
}

// TestBaselineKernelRows holds the kernel probes to the committed
// ledger exactly: what `adccbench -bench` would write for them is what
// BENCH_baseline.json says.
func TestBaselineKernelRows(t *testing.T) {
	base := readBaseline(t).byName()
	for _, got := range RunKernels() {
		if want, ok := base[got.Name]; !ok || got != want {
			t.Errorf("kernel %s = %+v, baseline row %+v (present: %v)", got.Name, got, want, ok)
		}
	}
}

// TestKernelOpsDoNotAllocate: every kernel's steady-state op is free of
// heap allocation — the guarantee the retired allocs_per_op column
// recorded (0 on every row).
func TestKernelOpsDoNotAllocate(t *testing.T) {
	for _, k := range Kernels() {
		_, op := k.Setup()
		i := 0
		if n := testing.AllocsPerRun(10, func() { op(i); i++ }); n != 0 {
			t.Errorf("kernel %s: %v allocations per op, want 0", k.Name, n)
		}
	}
}
