package core

import (
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mc"
	"adcc/internal/mem"
)

// TriggerMCLookup fires after every completed lookup.
const TriggerMCLookup = "mc.lookup"

// DefaultFlushPeriod returns the paper's flush/checkpoint period:
// 0.01% of the total number of lookups (at least 1).
func DefaultFlushPeriod(lookups int) int {
	p := lookups / 10_000
	if p < 1 {
		p = 1
	}
	return p
}

// MCRunner drives one Monte-Carlo run under a chosen scheme (paper
// §III-D and the seven-case comparison of Figure 13). The scheme's kind
// selects the restart mechanism — native, checkpoint, PMEM transactions
// — and, for the algorithm-directed schemes, its FlushPolicy selects
// which critical state is flushed per iteration:
//
//   - engine.FlushIndexOnly is the paper's "basic idea" (Figure 9
//     discussion): flush only the loop-index line and restart from the
//     remaining data in NVM — the biased results of Figure 10;
//   - engine.FlushSelective flushes macro_xs, the five counters, and the
//     loop index every FlushPeriod lookups (Figure 11);
//   - engine.FlushEveryIter flushes that state on every iteration — the
//     rejected design the paper measures at ~16% overhead.
type MCRunner struct {
	M  *crash.Machine
	Em *crash.Emulator
	S  *mc.Sim

	Scheme      engine.Scheme
	Guard       engine.Guard
	FlushPeriod int
}

// NewMCRunner builds a runner under the given scheme (nil means native).
// The grids are DRAM-tiered on heterogeneous machines (read-only data),
// while the critical state (macro_xs, counters, iteration index) stays
// NVM-direct.
func NewMCRunner(m *crash.Machine, em *crash.Emulator, s *mc.Sim, sc engine.Scheme) *MCRunner {
	if sc == nil {
		sc = engine.MustLookup(engine.SchemeNative)
	}
	r := &MCRunner{
		M: m, Em: em, S: s, Scheme: sc,
		FlushPeriod: DefaultFlushPeriod(s.Cfg.Lookups),
	}
	r.Guard = sc.NewGuard(m, 64*1024)
	r.Guard.Register(s.MacroXS, s.Counters, s.Iter)
	if r.Guard.Pool() != nil {
		// Transactional mode tracks completion in the index: iter = i
		// means lookup i committed. -1 = nothing committed yet.
		s.Iter.Live()[0] = -1
		s.Iter.Image()[0] = -1
	}
	m.TierRegion(s.EnergyGrid)
	m.TierRegion(s.XSIndices)
	m.TierRegion(s.NuclideGrids)
	return r
}

// flushCritical flushes the cache lines of macro_xs, the five counters,
// and the loop index (Figure 11 line 9).
func (r *MCRunner) flushCritical() {
	s := r.S
	r.M.Persist(s.MacroXS.Addr(mc.MacroOff), 8*mc.NumTypes)
	for k := 0; k < mc.NumTypes; k++ {
		r.M.Persist(s.CounterAddr(k), 8)
	}
	r.M.Persist(s.Iter.Addr(0), 8)
}

// Run executes lookups [from, Lookups) under the runner's scheme.
// After a crash, call RestartIter to learn where to resume and invoke
// Run again from there.
func (r *MCRunner) Run(from int64) {
	s := r.S
	total := int64(s.Cfg.Lookups)
	period := int64(r.FlushPeriod)
	pool := r.Guard.Pool()
	checkpoints := r.Guard.Checkpointer() != nil
	policy := r.Scheme.FlushPolicy()
	for i := from; i < total; i++ {
		if pool != nil {
			// Each lookup is a transaction: snapshot the critical
			// state, run the lookup, flush what it wrote at commit.
			tx := pool.Begin()
			tx.SetI64(s.Iter, 0, i)
			tx.Snapshot(s.MacroXS, mc.MacroOff, mc.NumTypes)
			for k := 0; k < mc.NumTypes; k++ {
				tx.Snapshot(s.Counters, k*(mem.LineSize/8), 1)
			}
			t := s.Lookup(i)
			tx.MarkWritten(s.MacroXS, mc.MacroOff, mc.NumTypes)
			tx.MarkWritten(s.Counters, t*(mem.LineSize/8), 1)
			tx.Commit()
			if r.Em != nil {
				r.Em.Trigger(TriggerMCLookup)
			}
			continue
		}

		s.Iter.Set(0, i)
		switch policy {
		case engine.FlushIndexOnly:
			// Basic idea: flush only the line containing i.
			r.M.Persist(s.Iter.Addr(0), 8)
		case engine.FlushSelective:
			if i%period == 0 {
				r.flushCritical()
			}
		case engine.FlushEveryIter:
			r.flushCritical()
		}
		if checkpoints && i%period == 0 {
			r.Guard.EndIteration(i, s.MacroXS, s.Counters, s.Iter)
		}
		s.Lookup(i)

		if r.Em != nil {
			r.Em.Trigger(TriggerMCLookup)
		}
	}
}

// RestartIter determines where to resume after a crash, per scheme: the
// flushed loop index for the algorithm-directed schemes, the last
// checkpoint tag for checkpointing, the rolled-back persistent index for
// PMEM.
func (r *MCRunner) RestartIter() int64 {
	switch {
	case r.Guard.Checkpointer() != nil:
		cp := r.Guard.Checkpointer()
		if !cp.Valid() {
			return 0
		}
		return cp.Restore(r.S.MacroXS, r.S.Counters, r.S.Iter)
	case r.Guard.Pool() != nil:
		// Roll back the torn transaction; the persistent index then
		// names the last committed lookup.
		r.Guard.Pool().Recover()
		return r.S.Iter.Image()[0] + 1
	default:
		return r.S.Iter.Image()[0]
	}
}
