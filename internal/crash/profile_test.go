package crash

import (
	"testing"
)

// profileWorkload issues loads and fires triggers against an emulator's
// machine: 10 ops per "iter" trigger, 5 iterations.
func profileWorkload(m *Machine, e *Emulator) func() {
	return func() {
		r := m.Heap.AllocF64("w.data", 64)
		for i := 0; i < 5; i++ {
			for j := 0; j < 10; j++ {
				r.At(j)
			}
			e.Trigger("iter")
		}
		e.Trigger("done")
	}
}

func TestProfileCountsOpsAndTriggers(t *testing.T) {
	m := NewMachine(MachineConfig{})
	e := NewEmulator(m)
	p := e.Profile(profileWorkload(m, e))
	if p.Ops != 50 {
		t.Errorf("Ops = %d, want 50", p.Ops)
	}
	want := []TriggerCount{{Name: "done", Count: 1}, {Name: "iter", Count: 5}}
	if len(p.Triggers) != len(want) {
		t.Fatalf("Triggers = %v, want %v", p.Triggers, want)
	}
	for i, w := range want {
		if p.Triggers[i] != w {
			t.Errorf("Triggers[%d] = %v, want %v", i, p.Triggers[i], w)
		}
	}
	if g := p.MainTriggerOps(); g != 10 {
		t.Errorf("MainTriggerOps = %d, want 10", g)
	}
}

// TestMainTrigger: the most frequent trigger wins, the first by name on
// a tie; an empty profile has a zero main trigger; and MainTriggerOps
// divides by its count exactly as before.
func TestMainTrigger(t *testing.T) {
	for _, tc := range []struct {
		p    RunProfile
		main TriggerCount
		ops  int64
	}{
		{RunProfile{}, TriggerCount{}, 0},
		{RunProfile{Ops: 77}, TriggerCount{}, 77},
		{RunProfile{Ops: 77, Triggers: []TriggerCount{{Name: "z", Count: 0}}}, TriggerCount{}, 77},
		{RunProfile{Ops: 50, Triggers: []TriggerCount{{Name: "done", Count: 1}, {Name: "iter", Count: 5}}}, TriggerCount{Name: "iter", Count: 5}, 10},
		{RunProfile{Ops: 99, Triggers: []TriggerCount{{Name: "a", Count: 4}, {Name: "b", Count: 4}, {Name: "c", Count: 2}}}, TriggerCount{Name: "a", Count: 4}, 24},
		{RunProfile{Ops: 7, Triggers: []TriggerCount{{Name: "x", Count: 9}}}, TriggerCount{Name: "x", Count: 9}, 0},
	} {
		if got := tc.p.MainTrigger(); got != tc.main {
			t.Errorf("%+v: MainTrigger = %+v, want %+v", tc.p, got, tc.main)
		}
		if got := tc.p.MainTriggerOps(); got != tc.ops {
			t.Errorf("%+v: MainTriggerOps = %d, want %d", tc.p, got, tc.ops)
		}
	}
}

func TestProfilePreservesArmedPoint(t *testing.T) {
	m := NewMachine(MachineConfig{})
	e := NewEmulator(m)
	e.Arm(CrashPoint{Trigger: "iter", Occurrence: 3})
	e.Profile(profileWorkload(m, e))
	// The profiling run must not have crashed, and the armed point must
	// survive for the next Run.
	if e.Crashed() {
		t.Fatal("profiling run crashed")
	}
	if !e.Run(profileWorkload(m, e)) {
		t.Fatal("armed trigger did not fire after Profile")
	}
	if e.CrashTrigger() != "iter" {
		t.Errorf("crash trigger = %q, want %q", e.CrashTrigger(), "iter")
	}
}

func TestPointsDeterministicAndInRange(t *testing.T) {
	p := RunProfile{
		Ops:      1000,
		Triggers: []TriggerCount{{Name: "iter", Count: 20}},
	}
	a := p.Points(40, 7)
	b := p.Points(40, 7)
	if len(a) != 40 {
		t.Fatalf("got %d points, want 40", len(a))
	}
	ops, trigs := 0, 0
	for i, pt := range a {
		if pt != b[i] {
			t.Fatalf("point %d differs between identical calls: %v vs %v", i, pt, b[i])
		}
		switch {
		case pt.Op > 0:
			ops++
			if pt.Op > p.Ops {
				t.Errorf("op point %d beyond profile ops %d", pt.Op, p.Ops)
			}
		case pt.Occurrence > 0:
			trigs++
			if pt.Trigger != "iter" || pt.Occurrence > 20 {
				t.Errorf("bad trigger point %v", pt)
			}
		default:
			t.Errorf("disarmed point %v enumerated", pt)
		}
	}
	if ops == 0 || trigs == 0 {
		t.Errorf("point mix: %d op points, %d trigger points; want both kinds", ops, trigs)
	}
	if c := p.Points(40, 8); a[0] == c[0] && a[2] == c[2] && a[4] == c[4] {
		t.Error("different seeds produced identical op points")
	}
}

func TestPointsWithoutTriggers(t *testing.T) {
	p := RunProfile{Ops: 100}
	for _, pt := range p.Points(10, 1) {
		if pt.Op <= 0 || pt.Op > 100 {
			t.Errorf("op point %v out of range", pt)
		}
	}
	if got := (RunProfile{}).Points(10, 1); got != nil {
		t.Errorf("empty profile enumerated %v", got)
	}
}

func TestArmDisarm(t *testing.T) {
	m := NewMachine(MachineConfig{})
	e := NewEmulator(m)
	e.Arm(CrashPoint{Op: 25})
	if !e.Run(profileWorkload(m, e)) {
		t.Fatal("op point did not fire")
	}
	if e.CrashOps() != 25 {
		t.Errorf("crashed at op %d, want 25", e.CrashOps())
	}
	e.Disarm()
	if e.Run(profileWorkload(m, e)) {
		t.Fatal("disarmed emulator crashed")
	}
	if e.OpCount() != 50 {
		t.Errorf("resumed run counted %d ops, want 50", e.OpCount())
	}
}
