package sparse

import (
	"adcc/internal/mem"
	"adcc/internal/sim"
)

// SimCSR is a CSR matrix stored in simulated memory regions, so every
// SpMV access is observed by the cache simulator.
type SimCSR struct {
	N      int
	RowPtr *mem.I64
	Col    *mem.I64
	Val    *mem.F64

	// xs is SpMV's buffer for one row's gathered x values.
	xs []float64
}

// NewSimCSR uploads a native CSR matrix into heap regions and marks the
// contents persistent (the paper assumes the input system is already
// consistent in NVM before the run).
func NewSimCSR(h *mem.Heap, a *CSR, name string) *SimCSR {
	s := &SimCSR{
		N:      a.N,
		RowPtr: h.AllocI64(name+".rowptr", len(a.RowPtr)),
		Col:    h.AllocI64(name+".col", len(a.Col)),
		Val:    h.AllocF64(name+".val", len(a.Val)),
	}
	copy(s.RowPtr.Live(), a.RowPtr)
	copy(s.Col.Live(), a.Col)
	copy(s.Val.Live(), a.Val)
	// Initial state is persistent without charging the clock.
	copy(s.RowPtr.Image(), a.RowPtr)
	copy(s.Col.Image(), a.Col)
	copy(s.Val.Image(), a.Val)
	return s
}

// Bytes returns the total simulated footprint of the matrix.
func (a *SimCSR) Bytes() int {
	return a.RowPtr.Bytes() + a.Col.Bytes() + a.Val.Bytes()
}

// SpMV computes dst[dstOff : dstOff+N] = A * x[xOff : xOff+N] through
// the simulated memory system, charging 2 flops per nonzero to the CPU.
// The simulated access stream (row-pointer pair, column range, value
// range, one x load per nonzero, one dst store) is part of the model
// and must not change; the x loads are one Gather per row, and the
// host-side loop slices vals to the gathered length for bounds-check
// elimination.
func (a *SimCSR) SpMV(cpu *sim.CPU, dst *mem.F64, dstOff int, x *mem.F64, xOff int) {
	rowPtr, col, val := a.RowPtr, a.Col, a.Val
	for i := 0; i < a.N; i++ {
		rp := rowPtr.LoadRange(i, 2)
		start, end := int(rp[0]), int(rp[1])
		nnz := end - start
		cols := col.LoadRange(start, nnz)
		vals := val.LoadRange(start, nnz)
		xs := x.Gather(a.xs[:0], xOff, cols)
		a.xs = xs
		if len(vals) > len(xs) {
			vals = vals[:len(xs)]
		}
		sum := 0.0
		for k, xv := range xs {
			sum += vals[k] * xv
		}
		dst.Set(dstOff+i, sum)
		cpu.Compute(int64(2 * nnz))
	}
}

// SpMVImage computes y = A*x natively over the persistent image of the
// matrix (used by post-crash recovery, which must not touch live state).
func (a *SimCSR) SpMVImage(y []float64, x []float64) {
	rp := a.RowPtr.Image()
	cols := a.Col.Image()
	vals := a.Val.Image()
	y = y[:a.N]
	for i := range y {
		sum := 0.0
		end := rp[i+1]
		for k := rp[i]; k < end; k++ {
			sum += vals[k] * x[cols[k]]
		}
		y[i] = sum
	}
}

// vector kernel chunk size: one page of elements at a time keeps range
// accounting cheap without hiding cache-line behaviour.
const chunk = 512

// SimDot returns the inner product of two region ranges, charging the
// memory system for the streamed loads and the CPU for 2n flops.
func SimDot(cpu *sim.CPU, a *mem.F64, aOff int, b *mem.F64, bOff int, n int) float64 {
	s := 0.0
	for i := 0; i < n; i += chunk {
		c := min(chunk, n-i)
		av := a.LoadRange(aOff+i, c)
		bv := b.LoadRange(bOff+i, c)
		for k := 0; k < c; k++ {
			s += av[k] * bv[k]
		}
	}
	cpu.Compute(int64(2 * n))
	return s
}

// SimAxpby computes dst = x + alpha*y over region ranges:
// dst[dstOff+i] = x[xOff+i] + alpha*y[yOff+i]. dst may alias x or y.
func SimAxpby(cpu *sim.CPU, dst *mem.F64, dstOff int, x *mem.F64, xOff int, alpha float64, y *mem.F64, yOff int, n int) {
	for i := 0; i < n; i += chunk {
		c := min(chunk, n-i)
		xv := x.LoadRange(xOff+i, c)
		yv := y.LoadRange(yOff+i, c)
		dv := dst.StoreRange(dstOff+i, c)
		for k := 0; k < c; k++ {
			dv[k] = xv[k] + alpha*yv[k]
		}
	}
	cpu.Compute(int64(2 * n))
}

// SimCopy copies n elements between region ranges.
func SimCopy(cpu *sim.CPU, dst *mem.F64, dstOff int, src *mem.F64, srcOff int, n int) {
	for i := 0; i < n; i += chunk {
		c := min(chunk, n-i)
		sv := src.LoadRange(srcOff+i, c)
		dv := dst.StoreRange(dstOff+i, c)
		copy(dv, sv)
	}
	cpu.Compute(int64(n))
}
