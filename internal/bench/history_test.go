package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// historyLine is one line of BENCH_history.ndjson at the repo root: the
// host-benchmark medians a PR measured for its parent commit and for
// itself, in benchmark/'s reference units.
type historyLine struct {
	PR     int    `json:"pr"`
	Issue  int    `json:"issue"`
	Commit string `json:"commit"` // empty only on the last line: a PR cannot name its own commit
	Parent string `json:"parent"`
	Date   string `json:"date"`
	// Seconds is the -seconds every run was given.
	Seconds int    `json:"seconds"`
	Note    string `json:"note"`
	// Workloads is keyed by BENCHMARK.json workload name.
	Workloads map[string]historyWorkload `json:"workloads"`
}

type historyWorkload struct {
	Pairs int `json:"pairs"`
	// Seeds of the pairs, in run order; null where the PR did not record
	// them.
	Seeds []int64 `json:"seeds"`
	// Metrics is keyed by BENCHMARK.json end-to-end metric name.
	Metrics map[string]historyMetric `json:"metrics"`
}

// historyMetric holds [q1, median, q3] over the runs of each side; a
// quartile is null where the PR reported the median alone.
type historyMetric struct {
	Parent [3]*float64 `json:"parent"`
	Change [3]*float64 `json:"change"`
}

// TestBenchHistoryParses keeps the ledger from rotting: every line
// decodes with no unknown field and carries every workload x end-to-end
// metric BENCHMARK.json declares, for both sides.
func TestBenchHistoryParses(t *testing.T) {
	root := filepath.Join("..", "..")
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != 4 || len(decl.EndToEnd) != 5 {
		t.Fatalf("BENCHMARK.json declares %d workloads x %d end-to-end metrics, the ledger was laid out for 4 x 5",
			len(decl.Workloads), len(decl.EndToEnd))
	}

	f, err := os.Open(filepath.Join(root, "BENCH_history.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []historyLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var h historyLine
		if err := dec.Decode(&h); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		lines = append(lines, h)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 4 {
		t.Fatalf("%d lines, want the three back-filled PRs and at least one more", len(lines))
	}

	for i, h := range lines {
		where := fmt.Sprintf("line %d (PR %d)", i+1, h.PR)
		if i > 0 && h.PR <= lines[i-1].PR {
			t.Errorf("%s: follows PR %d", where, lines[i-1].PR)
		}
		if h.Issue <= 0 || h.Parent == "" || h.Seconds <= 0 {
			t.Errorf("%s: issue %d, parent %q, seconds %d", where, h.Issue, h.Parent, h.Seconds)
		}
		if h.Commit == "" && i != len(lines)-1 {
			t.Errorf("%s: no commit; only the newest line may leave it to the next PR", where)
		}
		if _, err := time.Parse("2006-01-02", h.Date); err != nil {
			t.Errorf("%s: date: %v", where, err)
		}
		if len(h.Workloads) != len(decl.Workloads) {
			t.Errorf("%s: %d workloads, want %d", where, len(h.Workloads), len(decl.Workloads))
		}
		for _, w := range decl.Workloads {
			hw, ok := h.Workloads[w.Name]
			if !ok {
				t.Errorf("%s: no workload %q", where, w.Name)
				continue
			}
			if hw.Pairs <= 0 || (hw.Seeds != nil && len(hw.Seeds) != hw.Pairs) {
				t.Errorf("%s %s: %d pairs, %d seeds", where, w.Name, hw.Pairs, len(hw.Seeds))
			}
			if len(hw.Metrics) != len(decl.EndToEnd) {
				t.Errorf("%s %s: %d metrics, want %d", where, w.Name, len(hw.Metrics), len(decl.EndToEnd))
			}
			for _, m := range decl.EndToEnd {
				hm, ok := hw.Metrics[m.Name]
				if !ok {
					t.Errorf("%s %s: no metric %q", where, w.Name, m.Name)
					continue
				}
				for side, q := range map[string][3]*float64{"parent": hm.Parent, "change": hm.Change} {
					if err := checkQuartiles(q); err != nil {
						t.Errorf("%s %s/%s %s: %v", where, w.Name, m.Name, side, err)
					}
				}
			}
		}
	}
}

// checkQuartiles requires a positive median and, where given, quartiles
// on either side of it.
func checkQuartiles(q [3]*float64) error {
	if q[1] == nil || *q[1] <= 0 {
		return fmt.Errorf("no median")
	}
	if q[0] != nil && *q[0] > *q[1] || q[2] != nil && *q[2] < *q[1] {
		return fmt.Errorf("quartiles out of order")
	}
	return nil
}
