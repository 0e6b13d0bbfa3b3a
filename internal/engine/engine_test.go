package engine

import (
	"testing"

	"adcc/internal/cache"
	"adcc/internal/crash"
)

func testMachine() *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System: crash.NVMOnly,
		Cache:  cache.DefaultConfig(),
	})
}

func TestRegistryHasBuiltinSchemes(t *testing.T) {
	want := map[string]struct {
		kind   Kind
		system crash.SystemKind
		flush  FlushPolicy
	}{
		SchemeNative:     {KindNative, crash.NVMOnly, FlushNone},
		SchemeCkptHDD:    {KindCheckpoint, crash.NVMOnly, FlushNone},
		SchemeCkptNVM:    {KindCheckpoint, crash.NVMOnly, FlushNone},
		SchemeCkptHetero: {KindCheckpoint, crash.Hetero, FlushNone},
		SchemePMEM:       {KindPMEM, crash.NVMOnly, FlushNone},
		SchemeAlgoNVM:    {KindAlgo, crash.NVMOnly, FlushSelective},
		SchemeAlgoHetero: {KindAlgo, crash.Hetero, FlushSelective},
		SchemeAlgoNaive:  {KindAlgo, crash.NVMOnly, FlushIndexOnly},
		SchemeAlgoEvery:  {KindAlgo, crash.NVMOnly, FlushEveryIter},
	}
	if got := len(defaultRegistry.Names()); got < len(want) {
		t.Fatalf("registry holds %d schemes, want >= %d", got, len(want))
	}
	for name, w := range want {
		sc, ok := defaultRegistry.Lookup(name)
		if !ok {
			t.Fatalf("scheme %q not registered", name)
		}
		if sc.Name() != name {
			t.Fatalf("scheme %q reports name %q", name, sc.Name())
		}
		if sc.Kind() != w.kind || sc.System() != w.system || sc.FlushPolicy() != w.flush {
			t.Fatalf("scheme %q = (%v, %v, %v), want (%v, %v, %v)",
				name, sc.Kind(), sc.System(), sc.FlushPolicy(), w.kind, w.system, w.flush)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := defaultRegistry.Lookup("no-such-scheme"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup of unknown name did not panic")
		}
	}()
	MustLookup("no-such-scheme")
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := defaultRegistry.Register(&scheme{name: SchemeNative}); err == nil {
		t.Fatal("duplicate Register returned nil")
	}
	r := NewRegistry()
	fam := Family{Name: "w", New: func(Scheme, float64, any) (Workload, error) { return nil, nil }}
	if err := r.RegisterFamily(fam); err != nil {
		t.Fatalf("first RegisterFamily: %v", err)
	}
	if err := r.RegisterFamily(fam); err == nil {
		t.Fatal("duplicate RegisterFamily returned nil")
	}
	if err := r.RegisterFamily(Family{Name: "no-factory"}); err == nil {
		t.Fatal("RegisterFamily without New returned nil")
	}
}

func TestSevenCasesOrder(t *testing.T) {
	cases := SevenCases()
	wantOrder := []string{
		SchemeNative, SchemeCkptHDD, SchemeCkptNVM, SchemeCkptHetero,
		SchemePMEM, SchemeAlgoNVM, SchemeAlgoHetero,
	}
	if len(cases) != len(wantOrder) {
		t.Fatalf("SevenCases returned %d schemes", len(cases))
	}
	for i, sc := range cases {
		if sc.Name() != wantOrder[i] {
			t.Fatalf("case %d = %q, want %q (presentation order)", i, sc.Name(), wantOrder[i])
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindNative, KindCheckpoint, KindPMEM, KindAlgo} {
		if k.String() == "" {
			t.Fatalf("Kind(%d) has empty name", int(k))
		}
	}
}

func TestNativeGuardIsInert(t *testing.T) {
	m := testMachine()
	r := m.Heap.AllocF64("v", 64)
	g := MustLookup(SchemeNative).NewGuard(m, 0)
	g.Register(r)
	g.EndIteration(1, r)
	if g.Pool() != nil || g.Checkpointer() != nil {
		t.Fatal("native guard exposes a mechanism")
	}
}

func TestCheckpointGuardSavesAndRestores(t *testing.T) {
	m := testMachine()
	r := m.Heap.AllocF64("v", 64)
	g := MustLookup(SchemeCkptNVM).NewGuard(m, 0)
	if g.Pool() != nil {
		t.Fatal("checkpoint guard exposes a PMEM pool")
	}
	cp := g.Checkpointer()
	if cp == nil {
		t.Fatal("checkpoint guard has no checkpointer")
	}
	for i := 0; i < 64; i++ {
		r.Set(i, float64(i))
	}
	g.EndIteration(7, r)
	if !cp.Valid() || cp.Tag() != 7 {
		t.Fatalf("checkpoint not recorded: valid=%v tag=%d", cp.Valid(), cp.Tag())
	}
	for i := 0; i < 64; i++ {
		r.Set(i, -1)
	}
	if tag := cp.Restore(r); tag != 7 {
		t.Fatalf("restore tag = %d, want 7", tag)
	}
	for i := 0; i < 64; i++ {
		if r.Live()[i] != float64(i) {
			t.Fatalf("restored v[%d] = %v, want %d", i, r.Live()[i], i)
		}
	}
}

func TestPMEMGuardTransactionalDomain(t *testing.T) {
	m := testMachine()
	r := m.Heap.AllocF64("v", 64)
	g := MustLookup(SchemePMEM).NewGuard(m, 4096)
	pool := g.Pool()
	if pool == nil {
		t.Fatal("PMEM guard has no pool")
	}
	if g.Checkpointer() != nil {
		t.Fatal("PMEM guard exposes a checkpointer")
	}
	g.Register(r)
	tx := pool.Begin()
	tx.SetF64(r, 3, 42)
	tx.Commit()
	if r.Live()[3] != 42 {
		t.Fatalf("transactional store lost: %v", r.Live()[3])
	}
}

func TestCkptHDDGuardUsesHDDTarget(t *testing.T) {
	mNVM := testMachine()
	rNVM := mNVM.Heap.AllocF64("v", 1<<14)
	gNVM := MustLookup(SchemeCkptNVM).NewGuard(mNVM, 0)

	mHDD := testMachine()
	rHDD := mHDD.Heap.AllocF64("v", 1<<14)
	gHDD := MustLookup(SchemeCkptHDD).NewGuard(mHDD, 0)

	start := mNVM.Clock.Now()
	gNVM.EndIteration(1, rNVM)
	nvmNS := mNVM.Clock.Since(start)

	start = mHDD.Clock.Now()
	gHDD.EndIteration(1, rHDD)
	hddNS := mHDD.Clock.Since(start)

	if hddNS <= nvmNS {
		t.Fatalf("HDD checkpoint (%d ns) should cost more than NVM (%d ns)", hddNS, nvmNS)
	}
}
