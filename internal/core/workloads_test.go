package core

import (
	"testing"

	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mc"
)

// workloadMachine builds the small-LLC machine the conformance tests run
// on: big enough to be realistic, small enough that crash recovery has
// persistent state to find.
func workloadMachine() *crash.Machine {
	return cgMachine(crash.NVMOnly, 128<<10)
}

// crashTriggers names the iteration-end trigger and crash occurrence
// used to interrupt each workload mid-run.
var crashTriggers = map[string]struct {
	trigger    string
	occurrence int
}{
	"cg": {TriggerCGIterEnd, 8},
	"mm": {TriggerMMLoop1IterEnd, 3},
	"mc": {TriggerMCLookup, 0}, // occurrence filled from config below
}

// TestWorkloadConformanceNoCrash drives every paper workload through the
// engine.Workload lifecycle without a crash: prepare, run, verify,
// metrics.
func TestWorkloadConformanceNoCrash(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			m := workloadMachine()
			if err := w.Prepare(m, nil); err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			if err := w.Prepare(m, nil); err == nil {
				t.Fatal("second Prepare should fail")
			}
			w.Run(w.Start())
			if err := w.Verify(); err != nil {
				t.Fatalf("Verify after clean run: %v", err)
			}
			if len(w.Metrics()) == 0 {
				t.Fatal("no metrics reported")
			}
		})
	}
}

// TestWorkloadConformanceCrashRecover injects a crash mid-run at each
// workload's iteration-end trigger, then drives the generic
// recover-resume-verify path.
func TestWorkloadConformanceCrashRecover(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name(), func(t *testing.T) {
			ct, ok := crashTriggers[w.Name()]
			if !ok {
				t.Fatalf("no crash trigger configured for workload %q", w.Name())
			}
			m := workloadMachine()
			em := crash.NewEmulator(m)
			if err := w.Prepare(m, em); err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			occ := ct.occurrence
			if w.Name() == "mc" {
				occ = mc.TinyConfig().Lookups / 10
			}
			em.CrashAtTrigger(ct.trigger, occ)
			if !em.Run(func() { w.Run(w.Start()) }) {
				t.Fatal("workload completed without crashing")
			}
			from, err := w.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			w.Run(from)
			if err := w.Verify(); err != nil {
				t.Fatalf("Verify after crash recovery: %v", err)
			}
		})
	}
}

// TestMCWorkloadSchemeOverride checks that the MC workload honors an
// explicit scheme from the registry.
func TestMCWorkloadSchemeOverride(t *testing.T) {
	w := &MCWorkload{
		Cfg:    mc.TinyConfig(),
		Scheme: engine.MustLookup(engine.SchemeAlgoEvery),
	}
	m := workloadMachine()
	if err := w.Prepare(m, nil); err != nil {
		t.Fatal(err)
	}
	if w.r.Scheme.FlushPolicy() != engine.FlushEveryIter {
		t.Fatalf("runner scheme policy = %v", w.r.Scheme.FlushPolicy())
	}
	w.Run(0)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestMMWorkloadPrepareRejectsIndivisibleShape checks that a dimension
// the rank does not divide reaches the caller as Prepare's error under
// every scheme kind, rather than as the constructors' panic.
func TestMMWorkloadPrepareRejectsIndivisibleShape(t *testing.T) {
	opts := MMOptions{N: 192, K: 9}
	for _, name := range []string{engine.SchemeAlgoNVM, engine.SchemeNative, engine.SchemeCkptNVM} {
		w := NewMMWorkload(opts, engine.MustLookup(name), nil)
		if err := w.Prepare(workloadMachine(), nil); err == nil {
			t.Errorf("%s: Prepare accepted N=%d K=%d", name, opts.N, opts.K)
		}
	}
	if err := NewMMWorkload(MMOptions{N: 192, K: 8}, engine.MustLookup(engine.SchemeAlgoNVM), nil).Prepare(workloadMachine(), nil); err != nil {
		t.Errorf("Prepare rejected a divisible shape: %v", err)
	}
}
