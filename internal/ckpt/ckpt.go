// Package ckpt implements the checkpoint/restart baselines of the
// paper's seven-case evaluation (§III-A):
//
//   - checkpoint to a local hard drive (case 2),
//   - memory-based checkpoint on the NVM-only system (case 3),
//   - memory-based checkpoint on the heterogeneous NVM/DRAM system
//     (case 4).
//
// A memory-based checkpoint is "data copying plus cache flushing" (the
// paper's words): the source is read through the cache, the copy is
// written to the checkpoint area in NVM, and the destination is flushed
// from the CPU cache so the checkpoint itself is persistent. The paper
// measures the two halves at 51.9% (copy) / 48.1% (flush) of checkpoint
// overhead, which this model reproduces by charging one device-write
// pass for the copy and one for the flush.
//
// Restart is fully functional: the checkpointed bytes are retained and
// can be restored into the live+image state of the regions after a
// crash, with restore costs charged to the simulated clock.
package ckpt

import (
	"fmt"
	"slices"

	"adcc/internal/crash"
	"adcc/internal/mem"
	"adcc/internal/nvm"
)

// Checkpointer saves and restores sets of regions against one target
// device.
type Checkpointer struct {
	m      *crash.Machine
	target nvm.DeviceModel
	name   string
	// memoryBased selects the copy+flush cost model; HDD checkpoints
	// pay seek+bandwidth instead.
	memoryBased bool

	saved map[string][]uint64
	// spare holds per-region staging buffers: Checkpoint stages into
	// them and swaps them with saved at its commit point, so the hot
	// checkpoint loop allocates nothing in steady state while a crash
	// mid-save still leaves the previous checkpoint intact.
	spare map[string][]uint64
	tag   int64
	valid bool
	// ver counts commits and restores for crash.AuxState.AuxVersion.
	ver uint64
	// tierFlushNS is the fixed per-checkpoint cost of flushing the
	// heterogeneous system's DRAM cache (paper §III-A: checkpointing
	// on NVM/DRAM "includes flushing both CPU caches (using CLFLUSH)
	// and the DRAM cache (using memory copy)"). Zero on NVM-only.
	tierFlushNS int64
}

// NewHDD returns a checkpointer writing to a local hard drive.
func NewHDD(m *crash.Machine) *Checkpointer {
	c := &Checkpointer{
		m: m, target: nvm.HDD(), name: "ckpt-HDD", memoryBased: false,
		saved: map[string][]uint64{}, spare: map[string][]uint64{},
	}
	m.RegisterAux(c)
	return c
}

// NewNVM returns a memory-based checkpointer writing to the machine's
// persistence domain (NVM). On the NVM-only system this is cheap; on the
// heterogeneous system the low NVM bandwidth makes it expensive, exactly
// as in the paper's Figure 4.
func NewNVM(m *crash.Machine) *Checkpointer {
	c := &Checkpointer{
		m:           m,
		target:      m.Mem.PersistModel(),
		name:        "ckpt-" + m.System().String(),
		memoryBased: true,
		saved:       map[string][]uint64{},
		spare:       map[string][]uint64{},
	}
	if tier := m.DRAMCacheBytes(); tier > 0 {
		// Flushing the DRAM cache is a scan over its capacity at DRAM
		// speed (the paper implements it as a memory copy).
		c.tierFlushNS = nvm.DRAM().ReadCost(tier)
	}
	m.RegisterAux(c)
	return c
}

// Name identifies the checkpointer in reports.
func (c *Checkpointer) Name() string { return c.name }

// Valid reports whether a complete checkpoint is available.
func (c *Checkpointer) Valid() bool { return c.valid }

// Tag returns the tag of the last complete checkpoint.
func (c *Checkpointer) Tag() int64 { return c.tag }

// Checkpoint saves the given regions atomically under a tag (typically
// the iteration number), as raw words, whatever their element type.
//
// Crash-atomicity: chargeSave streams each source region through the
// cache, so an injected crash can fire in the middle of a multi-region
// checkpoint. All snapshots are therefore staged first and committed
// into c.saved together with the tag only after the last save completes
// — a crash mid-checkpoint leaves the previous checkpoint fully intact,
// as a double-buffered on-device checkpoint would.
func (c *Checkpointer) Checkpoint(tag int64, regions ...mem.Region) {
	for _, r := range regions {
		c.chargeSave(r)
		name := r.Name()
		c.spare[name] = copyWords(c.spare[name], r.LiveWords())
	}
	c.m.Clock.Advance(c.tierFlushNS)
	// Commit point: no simulated operation (and hence no crash point)
	// occurs past here. The staged snapshots swap in; the displaced
	// ones become the next call's staging buffers.
	for _, r := range regions {
		name := r.Name()
		c.saved[name], c.spare[name] = c.spare[name], c.saved[name]
	}
	c.tag = tag
	c.valid = true
	c.ver++
}

// copyWords copies src into dst, reallocating dst only when its length
// differs, and returns it.
func copyWords(dst, src []uint64) []uint64 {
	if len(dst) != len(src) {
		dst = make([]uint64, len(src))
	}
	copy(dst, src)
	return dst
}

// chargeSave prices one region save: a cached read of the source plus the
// target write, plus (for memory-based checkpoints) the destination
// flush pass.
func (c *Checkpointer) chargeSave(r mem.Region) {
	size := r.Bytes()
	// Source read through the cache: charges hits/misses/evictions as
	// the copy loop streams the region.
	const chunk = 4096 / 8
	for i := 0; i < r.Len(); i += chunk {
		r.LoadWords(i, min(chunk, r.Len()-i))
	}
	// Copy write to the target device.
	c.m.Clock.Advance(c.target.WriteCost(size))
	if c.memoryBased {
		// Flushing the checkpoint destination out of the CPU cache:
		// a second write pass over the data at NVM speed.
		c.m.Clock.Advance(c.target.WriteCost(size))
	}
}

// Restore copies the last checkpoint back into the given regions (both
// live and image state), charging target-read and memory-write costs.
// It returns the checkpoint tag. Regions must match a prior Checkpoint
// call by name and length.
func (c *Checkpointer) Restore(regions ...mem.Region) int64 {
	if !c.valid {
		panic("ckpt: restore without a valid checkpoint")
	}
	for _, r := range regions {
		s, ok := c.saved[r.Name()]
		if !ok {
			panic(fmt.Sprintf("ckpt: region %q not in checkpoint", r.Name()))
		}
		c.m.Clock.Advance(c.target.ReadCost(r.Bytes()))
		c.m.ChargeNVMWrite(r.Bytes())
		if len(s) != r.Len() {
			panic(fmt.Sprintf("ckpt: region %q length changed", r.Name()))
		}
		copy(r.LiveWords(), s)
		copy(r.ImageWords(), s)
	}
	return c.tag
}

// auxState is the checkpointer's contribution to a machine snapshot:
// the committed checkpoint contents, tag, and validity. The staging
// buffers are excluded — they are dead until the next Checkpoint call
// overwrites them, so they are not observable state.
type auxState struct {
	saved map[string][]uint64
	tag   int64
	valid bool
}

// SnapshotAux implements crash.AuxState.
func (c *Checkpointer) SnapshotAux(prev crash.AuxSnapshot) crash.AuxSnapshot {
	st, ok := prev.(*auxState)
	if !ok || st == nil {
		st = &auxState{saved: map[string][]uint64{}}
	}
	copySaved(st.saved, c.saved)
	st.tag = c.tag
	st.valid = c.valid
	return st
}

// RestoreAux implements crash.AuxState.
func (c *Checkpointer) RestoreAux(snap crash.AuxSnapshot) {
	st, ok := snap.(*auxState)
	if !ok {
		panic(fmt.Sprintf("ckpt: restore of foreign aux snapshot %T", snap))
	}
	copySaved(c.saved, st.saved)
	c.tag = st.tag
	c.valid = st.valid
	c.ver++
}

// copySaved makes dst a copy of src, reusing dst's buffers where the
// lengths allow.
func copySaved(dst, src map[string][]uint64) {
	for name := range dst {
		if _, ok := src[name]; !ok {
			delete(dst, name)
		}
	}
	for name, s := range src {
		dst[name] = copyWords(dst[name], s)
	}
}

// AuxVersion implements crash.AuxState.
func (c *Checkpointer) AuxVersion() uint64 { return c.ver }

// EqualAux implements crash.AuxSnapshot.
func (a *auxState) EqualAux(other crash.AuxSnapshot) bool {
	b, ok := other.(*auxState)
	if !ok || a.tag != b.tag || a.valid != b.valid || len(a.saved) != len(b.saved) {
		return false
	}
	for name, sa := range a.saved {
		if sb, ok := b.saved[name]; !ok || !slices.Equal(sa, sb) {
			return false
		}
	}
	return true
}
