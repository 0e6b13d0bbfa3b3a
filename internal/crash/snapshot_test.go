package crash_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adcc/internal/ckpt"
	"adcc/internal/crash"
	"adcc/internal/mem"
)

// snapMachine is one randomized machine under test: the platform, its
// regions, and a checkpointer registered as an aux carrier.
type snapMachine struct {
	m  *crash.Machine
	f  []*mem.F64
	i  []*mem.I64
	cp *ckpt.Checkpointer
}

// buildSnapMachine constructs a machine deterministically from the
// seed; calling it twice with the same seed yields two structurally
// identical machines, which is the contract Restore requires.
func buildSnapMachine(kind crash.SystemKind, seed int64) *snapMachine {
	rng := rand.New(rand.NewSource(seed))
	m := crash.NewMachine(crash.MachineConfig{System: kind})
	s := &snapMachine{m: m}
	for r := 0; r < 2+rng.Intn(3); r++ {
		s.f = append(s.f, m.Heap.AllocF64(fmt.Sprintf("f%d", r), 16+rng.Intn(900)))
	}
	for r := 0; r < 1+rng.Intn(2); r++ {
		s.i = append(s.i, m.Heap.AllocI64(fmt.Sprintf("i%d", r), 8+rng.Intn(200)))
	}
	s.cp = ckpt.NewNVM(m)
	return s
}

// step applies one random simulated operation.
func (s *snapMachine) step(rng *rand.Rand) {
	switch rng.Intn(10) {
	case 0, 1, 2: // element store
		r := s.f[rng.Intn(len(s.f))]
		r.Set(rng.Intn(r.Len()), rng.NormFloat64())
	case 3, 4: // element load
		r := s.f[rng.Intn(len(s.f))]
		r.At(rng.Intn(r.Len()))
	case 5: // range store
		r := s.f[rng.Intn(len(s.f))]
		i := rng.Intn(r.Len())
		n := 1 + rng.Intn(r.Len()-i)
		dst := r.StoreRange(i, n)
		for k := range dst {
			dst[k] = rng.NormFloat64()
		}
	case 6: // int store
		r := s.i[rng.Intn(len(s.i))]
		r.Set(rng.Intn(r.Len()), rng.Int63())
	case 7: // persist a region
		s.m.FlushRegion(s.f[rng.Intn(len(s.f))])
	case 8: // checkpoint a random region pair
		s.cp.Checkpoint(rng.Int63n(100), s.f[rng.Intn(len(s.f))], s.i[rng.Intn(len(s.i))])
	case 9: // CPU compute (exercises the fractional remainder)
		s.m.CPU.Compute(1 + rng.Int63n(1000))
	}
}

// run applies n steps of the script seeded by seed.
func (s *snapMachine) run(seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		s.step(rng)
	}
}

// endState is everything a run that began at a crash leaves behind: the
// simulated time it took, the live values it computed, and the state
// the next crash would preserve.
type endState struct {
	ns   int64
	live uint64
	post *crash.CrashState
}

// finish runs the suffix script from the machine's current (post-crash)
// state and captures its endState. It ends in a second crash, so the
// machine is left ready for the next restore.
func (s *snapMachine) finish(seed int64) endState {
	mark := s.m.Clock.Now()
	s.run(seed, 300)
	e := endState{ns: s.m.Clock.Since(mark)}
	for _, r := range s.f {
		for _, v := range r.Live() {
			e.live = mem.HashWord(e.live, math.Float64bits(v))
		}
	}
	for _, r := range s.i {
		for _, v := range r.Live() {
			e.live = mem.HashWord(e.live, uint64(v))
		}
	}
	s.m.Crash()
	e.post = s.m.CrashSnapshot(nil)
	return e
}

func (a endState) equal(b endState) bool {
	return a.ns == b.ns && a.live == b.live && a.post.Equal(b.post)
}

// TestSnapshotRestoreRoundTrip is the property test of the fork
// primitive the campaign engine is built on. For randomized machines
// and operation scripts, a chain of copy-on-write crash snapshots is
// captured along one run; restoring any of them onto a structural twin
// and running a script suffix must end exactly where a machine that
// really crashed at that instant ends — in any restore order, and when
// the same snapshot is restored twice in a row (the memoized path).
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cuts := []int{120, 121, 300, 450} // 120 -> 121 shares almost every region
	for _, kind := range []crash.SystemKind{crash.NVMOnly, crash.Hetero} {
		for seed := int64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				// Reference: one from-scratch machine per cut, really crashed.
				want := make([]endState, len(cuts))
				for ci, n := range cuts {
					ref := buildSnapMachine(kind, seed)
					ref.run(seed+1000, n)
					ref.m.Crash()
					want[ci] = ref.finish(seed + 2000)
				}

				// Recording run: one machine, snapshots chained through prev.
				a := buildSnapMachine(kind, seed)
				rng := rand.New(rand.NewSource(seed + 1000))
				states := make([]*crash.CrashState, len(cuts))
				var prev *crash.CrashState
				done := 0
				for ci, n := range cuts {
					for ; done < n; done++ {
						a.step(rng)
					}
					prev = a.m.CrashSnapshot(prev)
					states[ci] = prev
				}

				// Forks: one reused twin, out of capture order, with a repeat.
				b := buildSnapMachine(kind, seed)
				for _, ci := range []int{3, 0, 0, 2, 1, 3} {
					b.m.RestoreCrash(states[ci])
					if got := b.finish(seed + 2000); !got.equal(want[ci]) {
						t.Errorf("fork from the snapshot at step %d diverged from a real crash there (ns %d vs %d)",
							cuts[ci], got.ns, want[ci].ns)
					}
				}
			})
		}
	}
}
