package harness

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adcc/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenExperiments are the figure and ablation drivers pinned by
// figures_golden.txt: every experiment built on the two shared drivers,
// plus Figure 7, which shares their machines and labels.
var goldenExperiments = []string{
	"fig3", "fig4", "fig7", "fig8", "fig10", "fig12", "fig13",
	"stencil", "kvlog", "cg-cache", "mc-flush",
}

// figuresGolden renders the pinned experiments at CI scale: every table,
// then every event line, in experiment order.
func figuresGolden(t *testing.T, parallel int) []byte {
	t.Helper()
	var tables, events bytes.Buffer
	sink := engine.SinkFunc(func(e engine.Event) { fmt.Fprintln(&events, e) })
	for _, name := range goldenExperiments {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("missing experiment %s", name)
		}
		tab, err := e.Run(context.Background(), Options{Scale: 0.05, Parallel: parallel, Events: sink})
		if err != nil {
			t.Fatalf("%s (parallel=%d): %v", name, parallel, err)
		}
		tab.Fprint(&tables)
	}
	return append(append(tables.Bytes(), "== events ==\n"...), events.Bytes()...)
}

// TestFigureTablesGolden pins the tables and event streams of the figure
// drivers byte for byte, serial and parallel. The file was generated
// before the drivers were folded into the two shape drivers; a harness
// refactor is correct iff it does not move.
func TestFigureTablesGolden(t *testing.T) {
	golden := filepath.Join("testdata", "figures_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, figuresGolden(t, 1), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	for _, parallel := range []int{1, 4} {
		if got := figuresGolden(t, parallel); !bytes.Equal(got, want) {
			t.Errorf("parallel=%d: figure tables drifted from %s.\nIf intentional, regenerate with: go test ./internal/harness -run TestFigureTablesGolden -update\ngot:\n%s", parallel, golden, got)
		}
	}
}
