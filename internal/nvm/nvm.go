// Package nvm provides the performance models of the memory and storage
// devices in the paper's evaluation platform (§III-A), replacing the
// Quartz DRAM-based NVM emulator with a deterministic cost model:
//
//   - DRAM: the baseline device.
//   - PCM-like NVM: 4x the latency and 1/8 the bandwidth of DRAM,
//     the configuration the paper uses with Quartz.
//   - DRAM-like NVM: identical to DRAM (the paper's optimistic
//     "NVM-only system" configuration).
//   - HDD: a local hard drive for the traditional-checkpoint baseline.
//
// Two memory systems implement cache.CostModel for the LLC simulator:
//
//   - Uniform: every address is served by one device model (the
//     NVM-only system).
//   - Hetero: the heterogeneous NVM/DRAM system. Addresses registered
//     as "tiered" are served through a 32 MB DRAM page cache in front
//     of NVM (metadata-only LRU over 4 KB pages); all other addresses
//     go to NVM directly. This mirrors the paper's data placement
//     policy (critical, persistence-relevant objects placed in NVM;
//     large read-mostly data accelerated by the DRAM cache).
package nvm

import (
	"fmt"

	"adcc/internal/mem"
)

// DeviceModel prices accesses to one device as latency + size/bandwidth.
type DeviceModel struct {
	Name string
	// ReadLatencyNS and WriteLatencyNS are per-access latencies.
	ReadLatencyNS  int64
	WriteLatencyNS int64
	// ReadBW and WriteBW are bandwidths in bytes per nanosecond
	// (1 byte/ns = 1 GB/s approximately; exactly 10^9 B/s).
	ReadBW  float64
	WriteBW float64
}

// ReadCost returns the simulated cost of reading size bytes.
func (m DeviceModel) ReadCost(size int) int64 {
	return m.ReadLatencyNS + int64(float64(size)/m.ReadBW)
}

// WriteCost returns the simulated cost of writing size bytes.
func (m DeviceModel) WriteCost(size int) int64 {
	return m.WriteLatencyNS + int64(float64(size)/m.WriteBW)
}

// ReadCostSeq prices a read that the hardware prefetcher has already
// covered: bandwidth only, latency hidden. Streaming accesses on real
// machines run at bandwidth-bound throughput, which is what lets the
// paper's history-array extension stay under 3% overhead.
func (m DeviceModel) ReadCostSeq(size int) int64 {
	return int64(float64(size) / m.ReadBW)
}

// WriteCostSeq prices a write-combined streaming store: bandwidth only.
func (m DeviceModel) WriteCostSeq(size int) int64 {
	return int64(float64(size) / m.WriteBW)
}

// DRAM returns the baseline DRAM model: 80 ns access latency and
// 12.8 GB/s per-channel bandwidth, in line with the paper's 2.13 GHz
// Xeon E5606 platform.
func DRAM() DeviceModel {
	return DeviceModel{Name: "DRAM", ReadLatencyNS: 80, WriteLatencyNS: 80, ReadBW: 12.8, WriteBW: 12.8}
}

// PCMLikeNVM returns the pessimistic NVM model the paper emulates with
// Quartz: 4x DRAM latency and 1/8 DRAM bandwidth (§II, §III-A).
func PCMLikeNVM() DeviceModel {
	d := DRAM()
	return DeviceModel{
		Name:           "NVM(PCM-like)",
		ReadLatencyNS:  4 * d.ReadLatencyNS,
		WriteLatencyNS: 4 * d.WriteLatencyNS,
		ReadBW:         d.ReadBW / 8,
		WriteBW:        d.WriteBW / 8,
	}
}

// DRAMLikeNVM returns the optimistic NVM model: performance identical to
// DRAM (the paper's "NVM-only system" assumption).
func DRAMLikeNVM() DeviceModel {
	d := DRAM()
	d.Name = "NVM(DRAM-like)"
	return d
}

// HDD returns a local hard drive model as a checkpoint target: 2 ms
// effective positioning latency and 330 MB/s effective streaming
// bandwidth. Checkpoints write sequentially through the OS page cache
// with write-behind, so the effective rate is well above raw platter
// speed; the figure is calibrated against the paper's measured 60.4%
// checkpoint overhead on a local hard drive.
func HDD() DeviceModel {
	return DeviceModel{
		Name:           "HDD",
		ReadLatencyNS:  2_000_000,
		WriteLatencyNS: 2_000_000,
		ReadBW:         0.33,
		WriteBW:        0.33,
	}
}

// System is a memory system below the LLC. It extends cache.CostModel
// (structurally) with identification and lifecycle hooks.
type System interface {
	ReadCost(a mem.Addr, size int) int64
	WriteCost(a mem.Addr, size int) int64
	// ReadCostSeq and WriteCostSeq price accesses that the cache
	// simulator identified as part of a sequential stream (prefetched
	// / write-combined): bandwidth only.
	ReadCostSeq(a mem.Addr, size int) int64
	WriteCostSeq(a mem.Addr, size int) int64
	// Name identifies the system in reports.
	Name() string
	// Reset discards any volatile internal state (e.g. the DRAM page
	// cache) — called when the emulated machine crashes or restarts.
	Reset()
	// PersistModel returns the device model of the persistence domain,
	// used to price checkpoint copies and log writes landing in NVM.
	PersistModel() DeviceModel
}

// Uniform serves every address from a single device.
type Uniform struct {
	Model DeviceModel
}

// NewUniform returns a memory system with a single device model.
func NewUniform(m DeviceModel) *Uniform { return &Uniform{Model: m} }

// ReadCost implements System.
func (u *Uniform) ReadCost(_ mem.Addr, size int) int64 { return u.Model.ReadCost(size) }

// WriteCost implements System.
func (u *Uniform) WriteCost(_ mem.Addr, size int) int64 { return u.Model.WriteCost(size) }

// ReadCostSeq implements System.
func (u *Uniform) ReadCostSeq(_ mem.Addr, size int) int64 { return u.Model.ReadCostSeq(size) }

// WriteCostSeq implements System.
func (u *Uniform) WriteCostSeq(_ mem.Addr, size int) int64 { return u.Model.WriteCostSeq(size) }

// ConstantLineCosts implements cache.ConstantCostModel: a uniform
// system's costs never depend on the address, so the cache simulator
// can precompute them once per line size instead of re-deriving them on
// every fill and writeback.
func (u *Uniform) ConstantLineCosts(size int) (read, readSeq, write, writeSeq int64, ok bool) {
	return u.Model.ReadCost(size), u.Model.ReadCostSeq(size),
		u.Model.WriteCost(size), u.Model.WriteCostSeq(size), true
}

// Name implements System.
func (u *Uniform) Name() string { return u.Model.Name }

// Reset implements System.
func (u *Uniform) Reset() {}

// PersistModel implements System.
func (u *Uniform) PersistModel() DeviceModel { return u.Model }

// PageSize is the granularity of the heterogeneous system's DRAM cache.
const PageSize = 4096

// Hetero is the heterogeneous NVM/DRAM main memory: a DRAM page cache in
// front of PCM-like NVM for registered (tiered) address ranges, direct
// NVM for everything else. The page cache is metadata-only and affects
// cost, not crash consistency: persistence-critical objects are placed
// directly in NVM, following the paper's data-placement policy.
type Hetero struct {
	dram DeviceModel
	nvm  DeviceModel

	tiered []addrRange
	pages  *pageTier
}

type addrRange struct {
	base mem.Addr
	size int
}

// NewHetero builds the heterogeneous system with a DRAM cache of
// dramCacheBytes (the paper uses 32 MB).
func NewHetero(dramCacheBytes int) *Hetero {
	return &Hetero{
		dram:  DRAM(),
		nvm:   PCMLikeNVM(),
		pages: newPageTier(dramCacheBytes),
	}
}

// DefaultDRAMCacheBytes is the paper's DRAM cache size (32 MB), which in
// turn follows the algorithm-based NVM data placement work it cites.
const DefaultDRAMCacheBytes = 32 << 20

// SetTiered registers [base, base+size) as served through the DRAM page
// cache. Regions not registered are NVM-direct.
func (h *Hetero) SetTiered(base mem.Addr, size int) {
	h.tiered = append(h.tiered, addrRange{base, size})
}

// TierRegion registers an entire heap region as DRAM-tiered.
func (h *Hetero) TierRegion(r interface {
	Base() mem.Addr
	Bytes() int
}) {
	h.SetTiered(r.Base(), r.Bytes())
}

func (h *Hetero) isTiered(a mem.Addr) bool {
	for _, r := range h.tiered {
		if a >= r.base && a < r.base+mem.Addr(r.size) {
			return true
		}
	}
	return false
}

// ReadCost implements System.
func (h *Hetero) ReadCost(a mem.Addr, size int) int64 {
	if !h.isTiered(a) {
		return h.nvm.ReadCost(size)
	}
	cost := h.dram.ReadCost(size)
	if !h.pages.touch(a) {
		cost += h.nvm.ReadCost(PageSize) // page fill from NVM
	}
	return cost
}

// WriteCost implements System.
func (h *Hetero) WriteCost(a mem.Addr, size int) int64 {
	if !h.isTiered(a) {
		return h.nvm.WriteCost(size)
	}
	cost := h.dram.WriteCost(size)
	if !h.pages.touch(a) {
		cost += h.nvm.ReadCost(PageSize)
	}
	return cost
}

// ReadCostSeq implements System.
func (h *Hetero) ReadCostSeq(a mem.Addr, size int) int64 {
	if !h.isTiered(a) {
		return h.nvm.ReadCostSeq(size)
	}
	cost := h.dram.ReadCostSeq(size)
	if !h.pages.touch(a) {
		cost += h.nvm.ReadCostSeq(PageSize) // prefetched page fill
	}
	return cost
}

// WriteCostSeq implements System.
func (h *Hetero) WriteCostSeq(a mem.Addr, size int) int64 {
	if !h.isTiered(a) {
		return h.nvm.WriteCostSeq(size)
	}
	cost := h.dram.WriteCostSeq(size)
	if !h.pages.touch(a) {
		cost += h.nvm.ReadCostSeq(PageSize)
	}
	return cost
}

// Name implements System.
func (h *Hetero) Name() string { return "Hetero NVM/DRAM" }

// Reset implements System.
func (h *Hetero) Reset() { h.pages.reset() }

// PersistModel implements System.
func (h *Hetero) PersistModel() DeviceModel { return h.nvm }

// DRAMModel exposes the DRAM device model (used by checkpoint cost
// accounting for DRAM-cache flushes).
func (h *Hetero) DRAMModel() DeviceModel { return h.dram }

// NVMModel exposes the NVM device model.
func (h *Hetero) NVMModel() DeviceModel { return h.nvm }

// pageTier is a metadata-only 8-way LRU page cache.
type pageTier struct {
	nsets uint64
	assoc int
	ways  []pageWay
	tick  uint64
}

type pageWay struct {
	tag   uint64
	valid bool
	use   uint64
}

func newPageTier(capacity int) *pageTier {
	const assoc = 8
	npages := capacity / PageSize
	if npages < assoc {
		npages = assoc
	}
	nsets := npages / assoc
	return &pageTier{
		nsets: uint64(nsets),
		assoc: assoc,
		ways:  make([]pageWay, nsets*assoc),
	}
}

// touch returns true on a page hit; on a miss it fills the page
// (evicting LRU) and returns false.
func (t *pageTier) touch(a mem.Addr) bool {
	t.tick++
	pn := uint64(a) / PageSize
	s := pn % t.nsets
	set := t.ways[s*uint64(t.assoc) : (s+1)*uint64(t.assoc)]
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == pn {
			w.use = t.tick
			return true
		}
	}
	victim := &set[0]
	for i := range set {
		w := &set[i]
		if !w.valid {
			victim = w
			break
		}
		if w.use < victim.use {
			victim = w
		}
	}
	victim.tag = pn
	victim.valid = true
	victim.use = t.tick
	return false
}

func (t *pageTier) reset() {
	for i := range t.ways {
		t.ways[i] = pageWay{}
	}
	// A power cycle also restarts the LRU clock: a machine restarted
	// after a crash is indistinguishable from a fresh one.
	t.tick = 0
}

var (
	_ System = (*Uniform)(nil)
	_ System = (*Hetero)(nil)
)

func init() {
	// Sanity: the models must preserve the paper's stated ratios.
	d, n := DRAM(), PCMLikeNVM()
	if n.ReadLatencyNS != 4*d.ReadLatencyNS || d.ReadBW != 8*n.ReadBW {
		panic(fmt.Sprintf("nvm: model ratios violated: %+v vs %+v", d, n))
	}
}
