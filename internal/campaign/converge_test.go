package campaign

import (
	"context"
	"strings"
	"sync"
	"testing"

	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mem"
)

// forcedStops is the engine with the check budget at 0: golden state is
// kept at every main-loop boundary and every fork is checked at every
// one, so the stop path runs as often as it can. With anyInterval every
// kept boundary is a candidate, whatever the counters say, so that the
// content compare alone decides.
func forcedStops(anyInterval bool, onClass func(plan, *crash.CrashState, classResult)) stage2 {
	return forkKnobs{anyInterval: anyInterval, onClass: onClass}.runCells
}

// stopTally counts, per family and per cell, the forks that stopped
// early and the resume ops they took from the recording.
type stopTally struct {
	mu                    sync.Mutex
	forks, stops          map[string]int
	resumeOps, skippedOps map[string]int64
}

func newStopTally() *stopTally {
	return &stopTally{
		forks: map[string]int{}, stops: map[string]int{},
		resumeOps: map[string]int64{}, skippedOps: map[string]int64{},
	}
}

func (s *stopTally) observe(p plan, _ *crash.CrashState, res classResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range []string{p.Cell.Family.Name, p.Cell.String()} {
		s.forks[k]++
		s.resumeOps[k] += res.resumeOps
		s.skippedOps[k] += res.skippedOps
		if res.skippedOps > 0 {
			s.stops[k]++
		}
	}
}

// TestForcedStopsMatchOracle is the soundness test of the fork stop: with
// every boundary kept and checked, the engine must still reproduce the
// from-scratch oracle byte for byte — report and RowSink sequence, at
// worker-pool widths 1 and 8 — over every family that implements
// engine.Boundary under all five fault models. It runs once with the
// shipped counter-interval filter and once without it, where the content
// compare alone decides. The stop path must actually run: in every
// family, and in a PMEM-lib cell, whose undo-log pool carries Go-side
// state.
func TestForcedStopsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("forced-stop differential in -short mode")
	}
	for _, anyInterval := range []bool{false, true} {
		tally := newStopTally()
		requireStageMatchesOracle(t, Config{
			Scale:       0.02,
			PerCell:     6,
			Workloads:   []string{"cg", "mm", "stencil"},
			FaultModels: []string{"failstop", "torn", "eadr", "reorder", "bitflip"},
		}, forcedStops(anyInterval, tally.observe))

		for _, fam := range []string{"cg", "mm", "stencil"} {
			if tally.stops[fam] == 0 {
				t.Errorf("anyInterval=%v %s: no fork stopped early in %d forks", anyInterval, fam, tally.forks[fam])
			}
			t.Logf("anyInterval=%v %s: %d of %d forks stopped, %d of %d resume ops taken from the recording",
				anyInterval, fam, tally.stops[fam], tally.forks[fam], tally.skippedOps[fam], tally.resumeOps[fam])
		}
		pmem := 0
		for k, n := range tally.stops {
			if strings.Contains(k, "/PMEM-lib@") {
				pmem += n
			}
		}
		if pmem == 0 {
			t.Errorf("anyInterval=%v: no PMEM-lib fork stopped early", anyInterval)
		}
		t.Logf("anyInterval=%v: %d PMEM-lib forks stopped", anyInterval, pmem)
	}
}

// liveDigest hashes every region's live words.
func liveDigest(h *mem.Heap) uint64 {
	d := hashSeed
	buf := make([]uint64, chunkWords)
	for i := range h.Regions() {
		for off := 0; off < regionLen(h, i); off += chunkWords {
			d = mem.HashWord(d, hashWords(buf[:h.CopyLive(buf, i, off)]))
		}
	}
	return d
}

// TestBitflipForksThatNeverRejoinDoNotStop: a flipped persistent bit
// that the rest of the run never overwrites leaves the fork's state
// different from the recording's to the end, so such a fork must never
// stop. Each bitflip fork of the forced engine is replayed to the end on
// a fresh machine without stops; where its final live state differs from
// the uncrashed run's, the engine's fork must have run to the end too.
func TestBitflipForksThatNeverRejoinDoNotStop(t *testing.T) {
	cfg := Config{
		Scale:       0.02,
		PerCell:     8,
		Parallel:    1,
		Workloads:   []string{"cg", "stencil"},
		FaultModels: []string{"bitflip"},
	}
	final := map[string]uint64{} // per cell: the uncrashed run's final live digest
	diverged, rejoined := 0, 0
	observe := func(p plan, st *crash.CrashState, res classResult) {
		key := p.Cell.String()
		if _, ok := final[key]; !ok {
			m := crash.NewMachine(p.Cell.machineConfig())
			w, err := p.prepared(cfg, m, crash.NewEmulator(m))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			w.Run(w.Start())
			final[key] = liveDigest(m.Heap)
		}
		if res.recoverErr || res.resumeErr {
			return
		}
		f := newForker(cfg, p, crash.NewMachine(p.Cell.machineConfig()))
		f.run(st)
		if liveDigest(f.m.Heap) == final[key] {
			rejoined++
			return
		}
		diverged++
		if res.skippedOps > 0 {
			t.Errorf("%s: a fork whose final state differs from the recording's stopped early (%d ops skipped)",
				key, res.skippedOps)
		}
	}
	if _, err := run(context.Background(), cfg, forcedStops(true, observe)); err != nil {
		t.Fatal(err)
	}
	if diverged == 0 || rejoined == 0 {
		t.Errorf("%d forks diverged and %d rejoined; the test needs both", diverged, rejoined)
	}
}

// toyIters is the toy workload's iteration count: enough for a fork to
// retrain all sixteen prefetcher streams after its restart and rejoin.
const toyIters = 64

// toyWorkload is a loop whose recovered runs do extra work after the
// loop: a loop-carried Go-side flag, set by Recover, that a correct
// Boundary must report.
type toyWorkload struct {
	m       *crash.Machine
	em      *crash.Emulator
	x       *mem.F64
	it      *mem.I64
	iter    int
	resumed bool
	// omitResumed makes Boundary leave the flag out.
	omitResumed bool
}

func (w *toyWorkload) Name() string { return "toy" }
func (w *toyWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	w.m, w.em = m, em
	w.x = m.Heap.AllocF64("toy.x", 8)
	w.it = m.Heap.AllocI64("toy.it", 8)
	return nil
}
func (w *toyWorkload) Start() int64 { return 1 }
func (w *toyWorkload) Run(from int64) {
	for i := int(from); i <= toyIters; i++ {
		w.x.Set(i%8, 1)
		w.it.Set(0, int64(i))
		w.m.Persist(w.it.Addr(0), 8)
		w.iter = i
		w.em.Trigger("toy.iter")
	}
	if w.resumed {
		for k := 0; k < 64; k++ {
			w.x.At(k % 8)
		}
	}
}
func (w *toyWorkload) Recover() (int64, error) {
	w.resumed = true
	return w.it.Image()[0] + 1, nil
}
func (w *toyWorkload) Verify() error               { return nil }
func (w *toyWorkload) Metrics() map[string]float64 { return nil }
func (w *toyWorkload) Boundary(dst []uint64) ([]uint64, bool) {
	dst = append(dst, uint64(w.iter))
	if !w.omitResumed && w.resumed {
		dst = append(dst, 1)
	}
	return dst, true
}

// toyConfig sweeps the toy workload, with or without its flag in
// Boundary.
func toyConfig(t *testing.T, omitResumed bool) Config {
	reg := engine.NewBuiltinRegistry()
	if err := reg.RegisterFamily(engine.Family{
		Name:    "toy",
		Schemes: []string{engine.SchemeNative},
		New: func(engine.Scheme, float64, any) (engine.Workload, error) {
			return &toyWorkload{omitResumed: omitResumed}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return Config{Scale: 1, PerCell: 8, Parallel: 2, Registry: reg, Workloads: []string{"toy"}}
}

// TestBoundaryOmissionBreaksDifferential is the mutation test of the
// soundness argument: a Boundary that leaves out one loop-carried
// scalar lets forks stop where the rest of their run differs from the
// recording's, and the engine ≡ oracle differential must catch it. With
// the scalar reported, no fork can stop and the two agree.
func TestBoundaryOmissionBreaksDifferential(t *testing.T) {
	for _, omit := range []bool{true, false} {
		cfg := toyConfig(t, omit)
		tally := newStopTally()
		_, oracle, _ := runEncoded(t, runOracle, cfg)
		engine := func(ctx context.Context, cfg Config) (*Report, error) {
			return run(ctx, cfg, forcedStops(false, tally.observe))
		}
		_, got, _ := runEncoded(t, engine, cfg)
		switch {
		case omit && tally.stops["toy"] == 0:
			t.Errorf("omitting the flag: no fork stopped in %d forks; the mutation never bites", tally.forks["toy"])
		case omit && got == oracle:
			t.Error("omitting the flag: the engine still matches the oracle; the differential cannot see an incomplete Boundary")
		case !omit && tally.stops["toy"] != 0:
			t.Errorf("reporting the flag: %d forks stopped, want none (a resumed fork never equals the recording)", tally.stops["toy"])
		case !omit && got != oracle:
			t.Errorf("reporting the flag: engine differs from oracle:\noracle:\n%s\nengine:\n%s", oracle, got)
		}
	}
}
