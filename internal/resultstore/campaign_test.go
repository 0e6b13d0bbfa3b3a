package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"adcc/internal/campaign"
)

// storeConfig is a CI-sized campaign for store integration tests.
func storeConfig(parallel int) campaign.Config {
	return campaign.Config{
		Scale:     0.02,
		Parallel:  parallel,
		PerCell:   3,
		Workloads: []string{"mm"},
	}
}

// runWithStore executes the campaign with a store sink and returns the
// live report and the store bytes.
func runWithStore(t *testing.T, cfg campaign.Config) (*campaign.Report, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, cfg.Scale, cfg.Seed)
	cfg.Sink = w
	rep, err := campaign.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return rep, buf.Bytes()
}

// TestStoreDeterminism is the tentpole determinism contract: store
// bytes are identical at -parallel 1 vs 8. (That the rows handed to the
// sink are the right ones is the campaign package's oracle
// differential.)
func TestStoreDeterminism(t *testing.T) {
	_, base := runWithStore(t, storeConfig(1))
	_, wide := runWithStore(t, storeConfig(8))
	if !bytes.Equal(wide, base) {
		t.Errorf("store bytes differ between parallel 1 and 8: %d vs %d bytes", len(base), len(wide))
	}
}

// TestEnvelopeFromStore is the provenance contract: the campaign
// report rebuilt from the store encodes byte-identically to the live
// run's report — the v1 envelope is an export of the store.
func TestEnvelopeFromStore(t *testing.T) {
	rep, b := runWithStore(t, storeConfig(4))
	want, err := rep.EncodeJSON()
	if err != nil {
		t.Fatalf("encode live report: %v", err)
	}
	s, err := Open(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rebuilt, err := s.CampaignReport()
	if err != nil {
		t.Fatalf("CampaignReport: %v", err)
	}
	got, err := rebuilt.EncodeJSON()
	if err != nil {
		t.Fatalf("encode rebuilt report: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("store-rebuilt report differs from live report:\nlive:\n%s\nrebuilt:\n%s", want, got)
	}
}

// TestStoreSinkRejectsCheckpoints: a Sink combined with Completed
// cells must error up front — restored aggregates carry no rows, so
// the store would be silently incomplete.
func TestStoreSinkRejectsCheckpoints(t *testing.T) {
	cfg := storeConfig(1)
	rep, err := campaign.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("baseline Run: %v", err)
	}
	cfg.Completed = map[string]campaign.CellReport{rep.Cells[0].Key(): rep.Cells[0]}
	var buf bytes.Buffer
	cfg.Sink = NewWriter(&buf, cfg.Scale, cfg.Seed)
	if _, err := campaign.Run(context.Background(), cfg); err == nil {
		t.Fatal("Run accepted Sink together with Completed cells")
	}
}

// TestStoreSmallerThanJSON is the compactness acceptance bound: the
// columnar store must be at least 5x smaller than the equivalent
// per-injection JSON row dump.
func TestStoreSmallerThanJSON(t *testing.T) {
	_, b := runWithStore(t, storeConfig(4))
	s, err := Open(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var jsonBytes int
	err = s.Scan(Filter{}, func(r Row) error {
		j, err := json.Marshal(r)
		if err != nil {
			return err
		}
		jsonBytes += len(j) + 1 // newline-delimited rows
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if jsonBytes < 5*len(b) {
		t.Errorf("store %d bytes vs per-injection JSON %d bytes: ratio %.1fx, want >= 5x",
			len(b), jsonBytes, float64(jsonBytes)/float64(len(b)))
	}
}

// TestFileRoundTrip covers the file path: a Writer over an *os.File,
// sink writes, OpenFile, and the rebuilt report.
func TestFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/campaign.adccs"
	file, err := os.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	w := NewWriter(file, 0.02, 0)
	cfg := storeConfig(2)
	cfg.Sink = w
	rep, err := campaign.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := file.Close(); err != nil {
		t.Fatalf("Close file: %v", err)
	}
	f, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if f.TotalRows() != int64(rep.Injections) {
		t.Errorf("TotalRows = %d, want %d", f.TotalRows(), rep.Injections)
	}
	cells := f.Cells()
	if len(cells) != len(rep.Cells) {
		t.Fatalf("store has %d cells, report %d", len(cells), len(rep.Cells))
	}
	for _, c := range cells {
		if c.Injections == 0 {
			t.Errorf("cell %s/%s@%s has no rows", c.Workload, c.Scheme, c.System)
		}
	}
}

// TestOpenRejectsCorruption: flipped magics, truncations, and a
// corrupt footer all error cleanly.
func TestOpenRejectsCorruption(t *testing.T) {
	b, _, _, _ := genStore(t, 5, 3)
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"tiny", func(b []byte) []byte { return b[:10] }},
		{"bad header", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad end magic", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }},
		{"truncated footer", func(b []byte) []byte {
			return append(b[:len(b)/2], b[len(b)-trailerLen:]...)
		}},
		{"footer length overflow", func(b []byte) []byte {
			for i := 0; i < 8; i++ {
				b[len(b)-trailerLen+i] = 0xff
			}
			return b
		}},
	}
	for _, tc := range cases {
		mut := tc.mut(append([]byte(nil), b...))
		if _, err := Open(bytes.NewReader(mut), int64(len(mut))); err == nil {
			t.Errorf("%s: Open accepted corrupt store", tc.name)
		} else if testing.Verbose() {
			fmt.Printf("%s: %v\n", tc.name, err)
		}
	}
}
