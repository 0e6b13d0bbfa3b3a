// Package crash assembles the simulated platform (clock + CPU + heap +
// LLC + memory system) and provides the crash emulator of paper §III-A:
// run a workload, inject a crash at a chosen execution point, discard all
// volatile state, and hand the persistent NVM image to recovery code.
//
// Crash points are specified the same two ways as the paper's PIN tool:
//
//   - after a specific statement: the workload calls Trigger(name) at
//     the instrumented statement and the emulator crashes on the
//     configured occurrence of that name (the crash_sim_output() API);
//   - after a specific number of memory operations: profile a run to
//     learn the op count, then re-run with CrashAtOp.
//
// Both ways are unified by CrashPoint, the value an injection campaign
// arms with Emulator.Arm. Profile runs a workload with no crash armed
// and records its total op count and per-trigger occurrence counts; the
// resulting RunProfile enumerates deterministic seeded crash points for
// statistical fault-injection sweeps (internal/campaign).
package crash

import (
	"fmt"
	"math/rand"
	"sort"

	"adcc/internal/cache"
	"adcc/internal/mem"
	"adcc/internal/nvm"
	"adcc/internal/sim"
)

// SystemKind selects the paper's two NVM platforms.
type SystemKind int

const (
	// NVMOnly is the NVM-only system: NVM with the same performance as
	// DRAM, no DRAM cache (paper §III-A, optimistic configuration).
	NVMOnly SystemKind = iota
	// Hetero is the heterogeneous NVM/DRAM system: PCM-like NVM
	// (4x latency, 1/8 bandwidth) with a 32 MB DRAM page cache.
	Hetero
)

// String names the system kind as in the paper's figures.
func (k SystemKind) String() string {
	switch k {
	case NVMOnly:
		return "NVM-only"
	case Hetero:
		return "NVM/DRAM"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// MachineConfig describes a simulated platform.
type MachineConfig struct {
	System SystemKind
	// Cache configures the LLC; zero value means cache.DefaultConfig.
	Cache cache.Config
	// DRAMCacheBytes sizes the heterogeneous system's DRAM page cache;
	// zero means nvm.DefaultDRAMCacheBytes (32 MB, as in the paper).
	DRAMCacheBytes int
	// OpNS overrides the CPU per-operation cost; zero means the
	// sim.DefaultCPU value.
	OpNS float64
	// Flush selects the persistence instruction used by Persist.
	// The default is CLFLUSH, the only instruction available on the
	// paper's testbed.
	Flush FlushInstr
}

// FlushInstr selects the cache-line persistence instruction.
type FlushInstr int

const (
	// CLFLUSH writes back and invalidates the line (paper §II).
	CLFLUSH FlushInstr = iota
	// CLWB writes back and keeps the line resident — the instruction
	// the paper anticipates would further improve its approach.
	CLWB
)

// String names the instruction.
func (f FlushInstr) String() string {
	switch f {
	case CLFLUSH:
		return "CLFLUSH"
	case CLWB:
		return "CLWB"
	default:
		return fmt.Sprintf("FlushInstr(%d)", int(f))
	}
}

// Machine is one simulated NVM platform instance. All components share
// one simulated clock.
type Machine struct {
	Clock *sim.Clock
	CPU   *sim.CPU
	Heap  *mem.Heap
	LLC   *cache.Cache
	Mem   nvm.System

	kind MachineConfig
	// uniform and hetero are the memory systems the machine has built so
	// far, kept for a Reset to the same system kind; Mem is one of them.
	uniform *nvm.Uniform
	hetero  *nvm.Hetero
	// gen counts Resets: a CrashState shares aux snapshots only with a
	// capture of the same machine generation.
	gen uint64
	aux []AuxState
	// auxMarks memoizes the last RestoreCrash per aux component so
	// repeated restores of one snapshot skip untouched components.
	auxMarks []auxMark
	// fault is FaultOverlay's scratch (see fault.go).
	fault faultScratch
}

// withDefaults fills in the zero fields NewMachine documents.
func (cfg MachineConfig) withDefaults() MachineConfig {
	if cfg.Cache.SizeBytes == 0 {
		cfg.Cache = cache.DefaultConfig()
	}
	if cfg.DRAMCacheBytes == 0 {
		cfg.DRAMCacheBytes = nvm.DefaultDRAMCacheBytes
	}
	return cfg
}

// NewMachine builds a platform. The heap's accessor is the LLC, so every
// region access is cache-simulated from the start.
func NewMachine(cfg MachineConfig) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{Clock: &sim.Clock{}, CPU: &sim.CPU{}}
	m.setup(cfg)
	m.Heap = mem.NewHeapWith(func(h *mem.Heap) mem.Accessor {
		m.LLC = cache.New(cfg.Cache, m.Clock, m.Mem, h)
		return m.LLC
	})
	return m
}

// Reset returns a used machine to the state NewMachine(cfg) builds,
// reusing its storage: the clock, the CPU, the memory system (its page
// tier emptied and tiered ranges dropped), the LLC (every line, the
// prefetcher, the counters) and the heap (see mem.Heap.Reset: versions
// never rewind, old region handles are poisoned) all start over, and
// the aux carriers are dropped. The heap stays bound to the same LLC.
// cfg may change the system kind, the LLC's pricing and FlushFree, the
// flush instruction and the CPU, but not the LLC geometry or the DRAM
// cache size of a Hetero system already built: Reset panics on those.
func (m *Machine) Reset(cfg MachineConfig) {
	cfg = cfg.withDefaults()
	m.Clock.Reset()
	m.setup(cfg)
	m.LLC.Reset(cfg.Cache, m.Mem)
	m.Heap.Reset()
	clear(m.aux)
	m.aux = m.aux[:0]
	clear(m.auxMarks)
	m.auxMarks = m.auxMarks[:0]
	m.gen++
}

// setup configures the CPU and selects the memory system for cfg, which
// has its defaults filled in.
func (m *Machine) setup(cfg MachineConfig) {
	*m.CPU = *sim.DefaultCPU(m.Clock)
	if cfg.OpNS > 0 {
		m.CPU.OpNS = cfg.OpNS
	}
	switch cfg.System {
	case NVMOnly:
		if m.uniform == nil {
			m.uniform = nvm.NewUniform(nvm.DRAMLikeNVM())
		}
		m.Mem = m.uniform
	case Hetero:
		if m.hetero == nil {
			m.hetero = nvm.NewHetero(cfg.DRAMCacheBytes)
		} else {
			m.hetero.Renew(cfg.DRAMCacheBytes)
		}
		m.Mem = m.hetero
	default:
		panic(fmt.Sprintf("crash: unknown system kind %d", cfg.System))
	}
	m.kind = cfg
}

// System returns the machine's memory-system kind.
func (m *Machine) System() SystemKind { return m.kind.System }

// DRAMCacheBytes returns the size of the heterogeneous system's DRAM
// page cache (0 on NVM-only machines).
func (m *Machine) DRAMCacheBytes() int {
	if m.kind.System != Hetero {
		return 0
	}
	return m.kind.DRAMCacheBytes
}

// TierRegion registers a region as DRAM-tiered on the heterogeneous
// system; on NVM-only it is a no-op. Per the paper's data placement,
// large read-mostly inputs are tiered while persistence-critical objects
// stay NVM-direct.
func (m *Machine) TierRegion(r mem.Region) {
	if h, ok := m.Mem.(*nvm.Hetero); ok {
		h.SetTiered(r.Base(), r.Bytes())
	}
}

// Persist makes the byte range durable using the machine's configured
// persistence instruction (CLFLUSH or CLWB).
func (m *Machine) Persist(a mem.Addr, size int) {
	if m.kind.Flush == CLWB {
		m.LLC.FlushOpt(a, size)
		return
	}
	m.LLC.Flush(a, size)
}

// FlushRegion persists every line of a region.
func (m *Machine) FlushRegion(r mem.Region) {
	m.Persist(r.Base(), r.Bytes())
}

// ChargeNVMRead advances the clock by the cost of reading size bytes
// directly from the persistence domain (used by post-crash recovery,
// which runs with no warm cache).
func (m *Machine) ChargeNVMRead(size int) {
	m.Clock.Advance(m.Mem.PersistModel().ReadCost(size))
}

// ChargeNVMWrite advances the clock by the cost of writing size bytes
// directly to the persistence domain.
func (m *Machine) ChargeNVMWrite(size int) {
	m.Clock.Advance(m.Mem.PersistModel().WriteCost(size))
}

// AuxSnapshot is an opaque deep-copy snapshot of one auxiliary
// simulation component's state, produced by AuxState.SnapshotAux.
type AuxSnapshot interface {
	// EqualAux reports whether other captures identical state. Snapshot
	// deduplication (the campaign's equivalence classes) relies on it.
	EqualAux(other AuxSnapshot) bool
}

// AuxState is implemented by simulation components that carry mutable
// simulated state outside the machine's heap/cache/memory layers — the
// checkpointer's saved region copies, for example. Components register
// themselves with Machine.RegisterAux at construction so machine
// snapshots include them.
type AuxState interface {
	// SnapshotAux deep-copies the component's state. prev, when non-nil
	// and produced by the same component type, may donate its buffers;
	// implementations must tolerate a prev of any AuxSnapshot type.
	SnapshotAux(prev AuxSnapshot) AuxSnapshot
	// RestoreAux overwrites the component's state from a snapshot taken
	// from an identically-constructed component.
	RestoreAux(AuxSnapshot)
	// AuxVersion returns a counter that advances on every state
	// mutation. Like mem.Heap.ImageVersion, an unchanged version proves
	// the state is untouched; a changed version proves nothing about
	// contents.
	AuxVersion() uint64
}

// RegisterAux attaches an auxiliary state carrier to the machine's
// snapshots. Registration order must be deterministic (components
// register during workload construction), because RestoreCrash matches
// snapshots to carriers positionally.
func (m *Machine) RegisterAux(a AuxState) { m.aux = append(m.aux, a) }

// Aux returns the registered auxiliary state carriers in registration
// order. The slice is the machine's own; do not modify it.
func (m *Machine) Aux() []AuxState { return m.aux }

// StateVersion sums the mutation counters of every crash-surviving
// state layer: the heap's image version and each registered auxiliary
// component's version. All addends are monotone, so two observations
// with equal versions bracket an interval in which no persistent state
// changed — the O(1) fast path that lets the campaign assign
// consecutive crash points to one snapshot class without comparing
// state contents.
func (m *Machine) StateVersion() uint64 {
	v := m.Heap.ImageVersion()
	for _, a := range m.aux {
		v += a.AuxVersion()
	}
	return v
}

// CrashState is the post-crash state of a machine: the
// persistent region images (copy-on-write, shared across captures whose
// regions did not change) and the auxiliary component snapshots. It is
// sufficient to reproduce any run that begins with a crash, because
// Crash discards every other state layer — cache directory, volatile
// memory tier, live region values, CPU remainder. The campaign
// captures one CrashState per injection point and restores it with
// RestoreCrash, which costs almost nothing when consecutive points
// share persistent state.
type CrashState struct {
	Img *mem.ImageState
	Aux []AuxSnapshot

	// Overlay is the fault-model image mutation of this crash point
	// (nil for clean fail-stop): RestoreCrash applies it on top of the
	// restored images, and it participates in Hash and Equal so
	// equivalence-class deduplication keys on the torn/reordered bytes.
	// Captured by CrashSnapshotFault.
	Overlay []FaultWrite

	// auxVers are the components' AuxVersion values at capture time,
	// used to share unchanged aux snapshots across captures of the same
	// machine generation (src, gen).
	auxVers []uint64
	src     *Machine
	gen     uint64
	hash    uint64
}

// CrashSnapshot captures the machine's post-crash state. If prev is a
// snapshot of the same machine, unchanged regions and unchanged aux
// components share prev's entries instead of copying, so a capture
// between two crash points that persisted little is nearly free.
func (m *Machine) CrashSnapshot(prev *CrashState) *CrashState {
	st := &CrashState{
		Aux:     make([]AuxSnapshot, len(m.aux)),
		auxVers: make([]uint64, len(m.aux)),
		src:     m,
		gen:     m.gen,
	}
	var prevImg *mem.ImageState
	if prev != nil {
		prevImg = prev.Img
	}
	st.Img = m.Heap.SnapshotImages(prevImg)
	st.hash = st.Img.Hash()
	sameGen := prev != nil && prev.src == m && prev.gen == m.gen
	for i, a := range m.aux {
		v := a.AuxVersion()
		if sameGen && i < len(prev.Aux) && prev.auxVers[i] == v {
			st.Aux[i] = prev.Aux[i]
		} else {
			// Shared snapshots are immutable; never donate one as a
			// buffer for the next capture.
			st.Aux[i] = a.SnapshotAux(nil)
		}
		st.auxVers[i] = v
	}
	return st
}

// Hash returns a content hash of the persistent images, a cheap
// prefilter for Equal-based deduplication. Aux state is not mixed in
// (aux contents hash less cheaply); Equal compares it exactly.
func (a *CrashState) Hash() uint64 { return a.hash }

// Equal reports whether two crash states capture identical post-crash
// machine state. Overlays compare structurally: an equal base image
// under an equal overlay yields an equal post-crash image, so equality
// here is sufficient for replay deduplication (two states whose
// different overlays happen to cancel are conservatively kept apart).
func (a *CrashState) Equal(b *CrashState) bool {
	if !a.Img.Equal(b.Img) || len(a.Aux) != len(b.Aux) || len(a.Overlay) != len(b.Overlay) {
		return false
	}
	for i := range a.Overlay {
		if a.Overlay[i] != b.Overlay[i] {
			return false
		}
	}
	for i := range a.Aux {
		if a.Aux[i] != b.Aux[i] && !a.Aux[i].EqualAux(b.Aux[i]) {
			return false
		}
	}
	return true
}

// RestoreCrash puts the machine into the post-crash state captured in
// st: persistent images and live values are overwritten from the
// snapshot (folding the restart-from-image step in), auxiliary
// components are restored, and the volatile layers — cache directory,
// microarchitectural state, volatile memory tier — are reset exactly as
// Crash resets them. The simulated clock is NOT touched: a fork reports
// only clock deltas, so it may resume from any absolute time.
//
// Restores are memoized: restoring the same CrashState onto a machine
// whose persistent state was not touched since skips the data copies
// entirely, which is the common case when a fork ends in
// state-restoring recovery.
func (m *Machine) RestoreCrash(st *CrashState) {
	if len(st.Aux) != len(m.aux) {
		panic(fmt.Sprintf("crash: restore of %d aux snapshots onto %d registered carriers",
			len(st.Aux), len(m.aux)))
	}
	m.Heap.RestoreImages(st.Img)
	// Fault overlay: the torn/reordered/flipped words of this crash
	// point, applied on top of the restored images. The word stores
	// bump region versions past the restore marks, so a later restore
	// of a different snapshot provably re-copies the mutated regions.
	m.applyOverlay(st.Overlay)
	if len(m.auxMarks) != len(m.aux) {
		m.auxMarks = make([]auxMark, len(m.aux))
	}
	for i, a := range m.aux {
		mk := &m.auxMarks[i]
		if mk.snap == st.Aux[i] && a.AuxVersion() == mk.ver {
			continue
		}
		a.RestoreAux(st.Aux[i])
		// Record the version after the restore so an untouched component
		// can prove it still holds this snapshot's state.
		*mk = auxMark{snap: st.Aux[i], ver: a.AuxVersion()}
	}
	m.LLC.DiscardAll()
	m.LLC.ResetVolatile()
	m.Mem.Reset()
	m.CPU.SetRemainder(0)
}

// auxMark memoizes the last RestoreCrash source snapshot per aux
// component; see mem.Heap's restore memoization for the scheme.
type auxMark struct {
	snap AuxSnapshot
	ver  uint64
}

// crashSignal is the sentinel panic value used for crash injection.
type crashSignal struct {
	ops     int64
	trigger string
}

// haltSignal is the sentinel panic value of Halt.
type haltSignal struct{}

// Emulator injects crashes into workloads running on a Machine.
type Emulator struct {
	M *Machine

	// ops is the op count of the most recent Run, frozen when it
	// returned; during a Run the heap holds the live count.
	ops        int64
	running    bool
	crashAtOp  int64 // crash when the op count reaches this; 0 = disarmed
	trigName   string
	trigTarget int // occurrence number to crash at; 0 = disarmed
	trigSeen   int
	// stopFn is stop as a func value, made once: the heap calls it at
	// every scheduled op-count point.
	stopFn func()

	crashed   bool
	crashOps  int64
	crashTrig string

	// profile, when non-nil, counts every Trigger call by name
	// (installed by Profile runs).
	profile map[string]int

	// rec, when non-nil, pauses execution at scheduled crash points to
	// let a callback capture machine snapshots (installed by Record).
	rec *recording

	// boundaryName and boundary are SetBoundary's watch.
	boundaryName string
	boundary     func()

	// fault is the crash-time fault model (zero = clean fail-stop);
	// faultErr records a model that could not be applied at the most
	// recent crash. See SetFault / FaultErr in fault.go.
	fault    FaultModel
	faultErr error

	// OnCrash, if set, runs at the crash point before any volatile
	// state is discarded — the hook the crash_sim_output() API of the
	// paper's PIN tool uses to dump cache and memory contents.
	OnCrash func(*Machine)
}

// NewEmulator wraps a machine with crash-injection instrumentation.
func NewEmulator(m *Machine) *Emulator {
	e := &Emulator{M: m}
	e.stopFn = e.stop
	return e
}

// CrashAtOp arms a crash after n memory operations have been issued,
// counted from the next Run. An operation is one region accessor call
// (mem.Heap counts them): a range load or store counts once, a gather
// once per index.
func (e *Emulator) CrashAtOp(n int64) {
	e.crashAtOp = n
}

// CrashPoint names one injection site in either of the emulator's two
// coordinate systems: an absolute memory-operation count (Op > 0), or
// the Occurrence-th call to Trigger(Trigger). A zero CrashPoint is
// disarmed.
type CrashPoint struct {
	// Op crashes after this many memory operations (0 = use Trigger).
	Op int64 `json:"op,omitempty"`
	// Trigger and Occurrence crash at the Occurrence-th call to
	// Trigger(Trigger); occurrences are 1-based.
	Trigger    string `json:"trigger,omitempty"`
	Occurrence int    `json:"occurrence,omitempty"`
}

// String renders the point for logs and reports.
func (p CrashPoint) String() string {
	if p.Op > 0 {
		return fmt.Sprintf("op=%d", p.Op)
	}
	if p.Occurrence > 0 {
		return fmt.Sprintf("%s#%d", p.Trigger, p.Occurrence)
	}
	return "disarmed"
}

// Arm configures the emulator to crash at p on the next Run, replacing
// any previously armed point.
func (e *Emulator) Arm(p CrashPoint) {
	e.crashAtOp = p.Op
	e.trigName = p.Trigger
	e.trigTarget = p.Occurrence
}

// Disarm clears any armed crash point, so subsequent Runs complete
// (while still counting ops — recovery campaigns use this to measure
// rework after a crash).
func (e *Emulator) Disarm() {
	e.crashAtOp = 0
	e.trigName = ""
	e.trigTarget = 0
}

// TriggerCount is one named program point and how many times a profiled
// run passed it.
type TriggerCount struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// RunProfile is the crash-point coordinate space of one workload
// execution: the total memory-operation count and every named trigger
// with its occurrence count, sorted by name.
type RunProfile struct {
	Ops      int64          `json:"ops"`
	Triggers []TriggerCount `json:"triggers,omitempty"`
}

// Profile executes the workload with op counting installed but no crash
// armed, and returns the observed crash-point space. Any previously
// armed point is preserved and re-armed afterwards, and the machine is
// left in the workload's completed state — callers wanting a fresh
// platform for subsequent injections must rebuild it.
func (e *Emulator) Profile(workload func()) RunProfile {
	saved := CrashPoint{Op: e.crashAtOp, Trigger: e.trigName, Occurrence: e.trigTarget}
	e.Disarm()
	e.profile = map[string]int{}
	defer func() {
		e.profile = nil
		e.Arm(saved)
	}()
	e.Run(workload)
	p := RunProfile{Ops: e.ops}
	for name, c := range e.profile {
		p.Triggers = append(p.Triggers, TriggerCount{Name: name, Count: c})
	}
	sort.Slice(p.Triggers, func(i, j int) bool { return p.Triggers[i].Name < p.Triggers[j].Name })
	return p
}

// MainTrigger returns the most frequent trigger, the workload's main
// loop; on a tie the first listed, which for a Profile result is the
// first by name. It is zero when no trigger has a positive count.
func (p RunProfile) MainTrigger() TriggerCount {
	var main TriggerCount
	for _, t := range p.Triggers {
		if t.Count > main.Count {
			main = t
		}
	}
	return main
}

// MainTriggerOps estimates the op cost of one main-loop iteration: the
// total op count divided by the main trigger's occurrence count.
// Campaigns use it as the granularity against which rework is judged.
// Returns Ops when the profile saw no triggers.
func (p RunProfile) MainTriggerOps() int64 {
	if n := p.MainTrigger().Count; n > 0 {
		return p.Ops / int64(n)
	}
	return p.Ops
}

// Points enumerates n deterministic crash points from the profile under
// a seed: even indices are uniform random op counts in [1, Ops], odd
// indices are random occurrences of the profiled triggers (round-robin
// across trigger names). With no triggers profiled, every point is an
// op-count point. The same profile and seed always yield the same
// points, independent of host or execution order.
//
// Triggers with non-positive occurrence counts are skipped: Profile
// never records them, but Points also accepts hand-built profiles
// (asserted by FuzzProfilePoints), and a zero-count trigger names no
// crashable occurrence.
func (p RunProfile) Points(n int, seed int64) []CrashPoint {
	if n <= 0 || p.Ops <= 0 {
		return nil
	}
	var trigs []TriggerCount
	for _, t := range p.Triggers {
		if t.Count > 0 {
			trigs = append(trigs, t)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]CrashPoint, 0, n)
	ti := 0
	for i := 0; i < n; i++ {
		if i%2 == 1 && len(trigs) > 0 {
			t := trigs[ti%len(trigs)]
			ti++
			out = append(out, CrashPoint{
				Trigger:    t.Name,
				Occurrence: 1 + rng.Intn(t.Count),
			})
			continue
		}
		out = append(out, CrashPoint{Op: 1 + rng.Int63n(p.Ops)})
	}
	return out
}

// SetBoundary makes every Trigger(name) call run fn, after the point is
// recorded and before an armed crash at it could fire. fn observes the
// machine between two operations of the workload and may end the Run
// with Halt. A nil fn removes the watch.
func (e *Emulator) SetBoundary(name string, fn func()) {
	e.boundaryName, e.boundary = name, fn
	if fn == nil {
		e.boundaryName = ""
	}
}

// Halt ends the current Run where it stands, with no crash: nothing is
// discarded and Run returns false. It must be called inside Run, from
// code the workload calls (a SetBoundary watch or a heap stop).
func (e *Emulator) Halt() { panic(haltSignal{}) }

// CrashAtTrigger arms a crash at the occurrence-th call to
// Trigger(name). Occurrences are 1-based.
func (e *Emulator) CrashAtTrigger(name string, occurrence int) {
	e.trigName = name
	e.trigTarget = occurrence
}

// Trigger is called by instrumented workloads at named program points
// (the crash_sim_output() API of the paper's PIN tool). If the armed
// trigger matches, the crash fires here.
func (e *Emulator) Trigger(name string) {
	if e.profile != nil {
		e.profile[name]++
	}
	if e.rec != nil {
		if t := e.rec.trig[name]; t != nil {
			t.seen++
			for _, pi := range t.occ[t.seen] {
				e.rec.capture(pi)
			}
		}
	}
	if e.boundary != nil && name == e.boundaryName {
		e.boundary()
	}
	if e.trigTarget <= 0 || name != e.trigName {
		return
	}
	e.trigSeen++
	if e.trigSeen == e.trigTarget {
		panic(crashSignal{ops: e.OpCount(), trigger: name})
	}
}

// OpCount returns the number of memory operations observed so far in the
// current or most recent Run (including profiling runs). After a Run it
// stays put: accesses outside a Run are not counted against it.
func (e *Emulator) OpCount() int64 {
	if e.running {
		return e.M.Heap.Ops()
	}
	return e.ops
}

// Crashed reports whether the most recent Run ended in an injected crash.
func (e *Emulator) Crashed() bool { return e.crashed }

// CrashOps returns the op count at which the most recent crash fired.
func (e *Emulator) CrashOps() int64 { return e.crashOps }

// CrashTrigger returns the trigger name of the most recent crash ("" for
// op-count crashes).
func (e *Emulator) CrashTrigger() string { return e.crashTrig }

// armStop schedules the heap's next stop at the earlier of the next
// recorded op-count point and the armed crash op.
func (e *Emulator) armStop() {
	next := e.crashAtOp
	if r := e.rec; r != nil && r.opCursor < len(r.ops) {
		if at := r.ops[r.opCursor]; next <= 0 || at < next {
			next = at
		}
	}
	e.M.Heap.SetStop(next, e.stopFn)
}

// stop runs at a scheduled op count, after the count and before the
// operation reaches the cache: it captures every recorded point at this
// op, crashes if the armed crash op is reached, and otherwise schedules
// the next stop.
func (e *Emulator) stop() {
	ops := e.M.Heap.Ops()
	if r := e.rec; r != nil && r.opCursor < len(r.ops) && r.ops[r.opCursor] == ops {
		for _, pi := range r.opIdx[ops] {
			r.capture(pi)
		}
		r.opCursor++
	}
	if ops == e.crashAtOp {
		panic(crashSignal{ops: ops})
	}
	e.armStop()
}

// recording is the state of one Record run: the scheduled op-count
// points (sorted, deduplicated) with a cursor, the trigger-occurrence
// points keyed by name, and the snapshot callback.
type recording struct {
	ops      []int64
	opCursor int
	opIdx    map[int64][]int
	trig     map[string]*trigRecording
	capture  func(pointIdx int)
}

type trigRecording struct {
	occ  map[int][]int
	seen int
}

// Record executes the workload uncrashed, pausing at every point in
// points to invoke capture with the point's index — at exactly the
// instant an armed crash at that point would have fired (after the op
// count increments, before the access reaches the cache; at the
// matching Trigger call). capture typically snapshots the machine; it
// must not issue simulated accesses. Points the execution never
// reaches are not captured. Any armed crash point is suspended for the
// duration and re-armed afterwards.
func (e *Emulator) Record(workload func(), points []CrashPoint, capture func(pointIdx int)) {
	rec := &recording{
		opIdx:   make(map[int64][]int),
		trig:    make(map[string]*trigRecording),
		capture: capture,
	}
	for i, p := range points {
		switch {
		case p.Op > 0:
			if _, seen := rec.opIdx[p.Op]; !seen {
				rec.ops = append(rec.ops, p.Op)
			}
			rec.opIdx[p.Op] = append(rec.opIdx[p.Op], i)
		case p.Occurrence > 0:
			t := rec.trig[p.Trigger]
			if t == nil {
				t = &trigRecording{occ: make(map[int][]int)}
				rec.trig[p.Trigger] = t
			}
			t.occ[p.Occurrence] = append(t.occ[p.Occurrence], i)
		}
	}
	sort.Slice(rec.ops, func(i, j int) bool { return rec.ops[i] < rec.ops[j] })

	saved := CrashPoint{Op: e.crashAtOp, Trigger: e.trigName, Occurrence: e.trigTarget}
	e.Disarm()
	e.rec = rec
	defer func() {
		e.rec = nil
		e.Arm(saved)
	}()
	e.Run(workload)
}

// Run executes the workload with crash instrumentation installed.
// It returns true if an armed crash fired, in which case the machine has
// already gone through the full crash protocol: the LLC is discarded
// (dirty lines lost), the memory system's volatile tier is reset, and
// every region's live data has been replaced by its NVM image — the
// state a restarted process would observe. A Halt returns false with
// the machine as it stood. Other panics propagate.
func (e *Emulator) Run(workload func()) (crashed bool) {
	e.trigSeen = 0
	e.crashed = false
	e.crashOps = 0
	e.crashTrig = ""
	e.faultErr = nil

	h := e.M.Heap
	h.ResetOps()
	e.running = true
	e.armStop()
	// On every exit, foreign panics included: freeze the count and clear
	// the stop, so accesses after the Run neither count nor fire it.
	defer func() {
		e.ops, e.running = h.Ops(), false
		h.SetStop(0, nil)
	}()

	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(haltSignal); ok {
				return
			}
			sig, ok := r.(crashSignal)
			if !ok {
				panic(r)
			}
			e.crashed = true
			e.crashOps = sig.ops
			e.crashTrig = sig.trigger
			if e.OnCrash != nil {
				e.OnCrash(e.M)
			}
			// The crash op count seeds the fault lottery, so the same
			// point under the same model tears/reorders identically in a
			// real crash here and in a campaign capture. An inapplicable
			// model leaves a fail-stop crash and is reported via FaultErr.
			e.faultErr = e.M.CrashWithFault(e.fault, sig.ops)
			crashed = true
		}
	}()
	workload()
	return e.crashed
}

// Crash executes the machine-level crash-and-restart protocol: the LLC
// is discarded (dirty lines lost) along with its cold-start
// microarchitectural state (LRU clock, prefetcher streams), the memory
// system's volatile tier is reset, every region's live data is replaced
// by its NVM image, and the CPU's sub-nanosecond remainder is dropped.
// After Crash the machine's observable state is a function of the
// persistent images and the registered auxiliary components alone —
// the invariant the campaign engine deduplicates on.
func (m *Machine) Crash() {
	m.LLC.DiscardAll()
	m.LLC.ResetVolatile()
	m.Mem.Reset()
	m.Heap.RestartFromImage()
	m.CPU.SetRemainder(0)
}

// InjectCrashNow can be called by tests or workloads to crash
// unconditionally at the current point. It must run inside Emulator.Run.
func InjectCrashNow() {
	panic(crashSignal{})
}
