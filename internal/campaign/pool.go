package campaign

import (
	"runtime"
	"sync"

	"adcc/internal/crash"
)

// freeList keeps released values for reuse, at most one per CPU: the
// campaign's workers take one at a time, so a longer list would only
// pin memory.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// take returns a released value, or false when there is none.
func (l *freeList[T]) take() (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var x T
	n := len(l.free)
	if n == 0 {
		return x, false
	}
	x, l.free[n-1] = l.free[n-1], x
	l.free = l.free[:n-1]
	return x, true
}

// put releases x for reuse, or drops it when the list is full.
func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < runtime.GOMAXPROCS(0) {
		l.free = append(l.free, x)
	}
}

// machines is the campaign's machine pool: the profile stage and every
// cell take their machine here and give it back on every exit path, so
// steady-state cells allocate no machine. The from-scratch oracle in
// oracle_test.go builds its own with crash.NewMachine instead, so it
// shares nothing with the pool.
var machines freeList[*crash.Machine]

// takeMachine returns a machine in the state crash.NewMachine(cfg)
// builds: a released one Reset to cfg, or a new one.
func takeMachine(cfg crash.MachineConfig) *crash.Machine {
	if m, ok := machines.take(); ok {
		m.Reset(cfg)
		return m
	}
	return crash.NewMachine(cfg)
}

// releaseMachine returns m, last taken for cfg, to the pool. It is Reset
// and lets go of its heap's storage first, so a machine idle in the pool
// holds only its fixed-size LLC and page tier, whatever the scale of the
// cell that ran on it.
func releaseMachine(m *crash.Machine, cfg crash.MachineConfig) {
	m.Reset(cfg)
	m.Heap.DropSpare()
	machines.put(m)
}
