package nvm

import (
	"math/rand"
	"slices"
	"testing"

	"adcc/internal/mem"
)

func TestDeviceModelCosts(t *testing.T) {
	m := DeviceModel{ReadLatencyNS: 100, WriteLatencyNS: 200, ReadBW: 2, WriteBW: 4}
	if got := m.ReadCost(64); got != 100+32 {
		t.Fatalf("ReadCost(64) = %d, want 132", got)
	}
	if got := m.WriteCost(64); got != 200+16 {
		t.Fatalf("WriteCost(64) = %d, want 216", got)
	}
}

func TestPaperModelRatios(t *testing.T) {
	d, n := DRAM(), PCMLikeNVM()
	if n.ReadLatencyNS != 4*d.ReadLatencyNS {
		t.Errorf("NVM latency = %d, want 4x DRAM (%d)", n.ReadLatencyNS, 4*d.ReadLatencyNS)
	}
	if d.ReadBW != 8*n.ReadBW {
		t.Errorf("NVM bandwidth = %v, want 1/8 of DRAM (%v)", n.ReadBW, d.ReadBW/8)
	}
	if dl := DRAMLikeNVM(); dl.ReadCost(4096) != d.ReadCost(4096) {
		t.Error("DRAM-like NVM must cost the same as DRAM")
	}
}

func TestHDDMuchSlowerThanDRAM(t *testing.T) {
	if HDD().WriteCost(1<<20) < 20*DRAM().WriteCost(1<<20) {
		t.Error("HDD should be orders of magnitude slower than DRAM for 1 MB")
	}
}

func TestUniformSystem(t *testing.T) {
	u := NewUniform(DRAM())
	if u.ReadCost(0, 64) != u.ReadCost(1<<30, 64) {
		t.Error("uniform system cost must be address independent")
	}
	if u.Name() != "DRAM" {
		t.Errorf("Name = %q", u.Name())
	}
	if u.PersistModel().Name != "DRAM" {
		t.Error("PersistModel mismatch")
	}
	u.Reset() // must not panic
}

func TestHeteroUntieredGoesToNVM(t *testing.T) {
	h := NewHetero(1 << 20)
	nvmCost := PCMLikeNVM().ReadCost(64)
	if got := h.ReadCost(12345, 64); got != nvmCost {
		t.Fatalf("untiered read cost = %d, want NVM cost %d", got, nvmCost)
	}
}

func TestHeteroTieredHitAndMiss(t *testing.T) {
	h := NewHetero(1 << 20)
	h.SetTiered(0, 1<<20)
	dram := DRAM()
	nvm := PCMLikeNVM()

	missCost := h.ReadCost(4096, 64)
	wantMiss := dram.ReadCost(64) + nvm.ReadCost(PageSize)
	if missCost != wantMiss {
		t.Fatalf("tier miss = %d, want %d", missCost, wantMiss)
	}
	hitCost := h.ReadCost(4096+64, 64) // same page now resident
	if hitCost != dram.ReadCost(64) {
		t.Fatalf("tier hit = %d, want DRAM cost %d", hitCost, dram.ReadCost(64))
	}
	if missCost <= hitCost {
		t.Fatal("miss must cost more than hit")
	}
}

func TestHeteroResetColdsTier(t *testing.T) {
	h := NewHetero(1 << 20)
	h.SetTiered(0, 1<<20)
	h.ReadCost(0, 64)
	hot := h.ReadCost(0, 64)
	h.Reset()
	cold := h.ReadCost(0, 64)
	if cold <= hot {
		t.Fatal("Reset did not cold the DRAM page cache")
	}
}

func TestHeteroTierEviction(t *testing.T) {
	// Tiny tier: capacity 8 pages (one set at assoc 8).
	h := NewHetero(8 * PageSize)
	h.SetTiered(0, 1<<30)
	// Touch 9 distinct pages in the same set: first page gets evicted.
	for p := 0; p < 9; p++ {
		h.ReadCost(mem.Addr(p*PageSize), 64)
	}
	cost := h.ReadCost(0, 64)
	if cost == DRAM().ReadCost(64) {
		t.Fatal("page 0 should have been evicted and cost a refill")
	}
}

func TestHeteroWriteCosts(t *testing.T) {
	h := NewHetero(1 << 20)
	h.SetTiered(0, 4096)
	nvmW := PCMLikeNVM().WriteCost(64)
	if got := h.WriteCost(1<<20, 64); got != nvmW {
		t.Fatalf("untiered write = %d, want %d", got, nvmW)
	}
	h.ReadCost(0, 64) // warm the page
	if got := h.WriteCost(0, 64); got != DRAM().WriteCost(64) {
		t.Fatalf("tiered warm write = %d, want DRAM cost", got)
	}
}

func TestTierRegionHelper(t *testing.T) {
	h := NewHetero(1 << 20)
	heap := mem.NewHeap(nil)
	r := heap.AllocF64("big", 1024)
	h.TierRegion(r)
	if !h.isTiered(r.Base()) || !h.isTiered(r.Base()+mem.Addr(r.Bytes())-1) {
		t.Fatal("TierRegion did not cover the region")
	}
	if h.isTiered(r.Base() + mem.Addr(r.Bytes())) {
		t.Fatal("tiering covers past the region end")
	}
}

// touchScript drives a page tier with n random touches over a page
// range a few times its capacity and returns the hit pattern.
func touchScript(tier *pageTier, rng *rand.Rand, n int) []bool {
	pages := 3 * len(tier.ways)
	hits := make([]bool, n)
	for i := range hits {
		hits[i] = tier.touch(mem.Addr(rng.Intn(pages) * PageSize))
	}
	return hits
}

// TestPageTierResetMatchesNew: whatever a page tier saw before, reset
// leaves it indistinguishable from a new one — the same hits and the
// same canonical LRU on any touch sequence after it — although it
// clears only the sets its filled bitmap marks.
func TestPageTierResetMatchesNew(t *testing.T) {
	const capacity = 64 * PageSize // 8 sets of 8 ways
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		used := newPageTier(capacity)
		touchScript(used, rng, rng.Intn(300))
		used.reset()
		fresh := newPageTier(capacity)
		after := rng.Int63()
		n := rng.Intn(300)
		got := touchScript(used, rand.New(rand.NewSource(after)), n)
		want := touchScript(fresh, rand.New(rand.NewSource(after)), n)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: hits after reset differ from a new tier's", seed)
		}
		if g, w := used.appendLRU(nil), fresh.appendLRU(nil); !slices.Equal(g, w) {
			t.Fatalf("seed %d: LRU after reset %v, new tier %v", seed, g, w)
		}
	}
}

// TestHeteroRenewMatchesNew: Renew drops the tiered ranges and empties
// the page tier, allocating nothing; a size change panics.
func TestHeteroRenewMatchesNew(t *testing.T) {
	h := NewHetero(1 << 20)
	h.SetTiered(0, 1<<20)
	for a := mem.Addr(0); a < 1<<20; a += PageSize {
		h.ReadCost(a, 64)
	}
	h.Renew(1 << 20)
	fresh := NewHetero(1 << 20)
	if got, want := h.ReadCost(0, 64), fresh.ReadCost(0, 64); got != want {
		t.Errorf("after Renew an untiered read costs %d, on a new system %d", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { h.SetTiered(0, 4096); h.ReadCost(0, 64); h.Renew(1 << 20) }); n != 0 {
		t.Errorf("Renew: %v allocs, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("Renew to another size did not panic")
		}
	}()
	h.Renew(2 << 20)
}
