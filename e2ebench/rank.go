package main

import "math/bits"

// modP is the Mersenne prime 2^61 − 1. Rank over GF(modP) needs no
// tolerance; it can only fall below the rational rank when modP divides
// every maximal minor, which integer 0/1 path matrices of this size never
// come near.
const modP = 1<<61 - 1

// reduceP folds x < 2^62 into [0, modP).
func reduceP(x uint64) uint64 {
	x = (x & modP) + (x >> 61)
	if x >= modP {
		x -= modP
	}
	return x
}

func addP(a, b uint64) uint64 { return reduceP(a + b) }

func subP(a, b uint64) uint64 { return reduceP(a + modP - b) }

func mulP(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a·b = hi·2^64 + lo, and 2^61 ≡ 1, so the product folds to the sum of
	// its 61-bit limbs.
	return addP(hi<<3|lo>>61, lo&modP)
}

// invP returns a^(p−2) = a⁻¹ for a ≠ 0.
func invP(a uint64) uint64 {
	out, base := uint64(1), a
	for e := uint64(modP - 2); e > 0; e >>= 1 {
		if e&1 == 1 {
			out = mulP(out, base)
		}
		base = mulP(base, base)
	}
	return out
}

// toP maps a signed integer into GF(modP).
func toP(v int64) uint64 {
	if v >= 0 {
		return uint64(v) % modP
	}
	return subP(0, uint64(-v)%modP)
}

// exactBasis is a row-echelon basis over GF(modP): every stored row is
// normalized to 1 at its pivot and is zero at the pivots of the rows stored
// before it, so one pass in insertion order reduces a candidate row.
type exactBasis struct {
	cols    int
	rows    [][]uint64
	pivots  []int
	scratch []uint64
	spare   [][]uint64 // row storage kept by reset for reuse
}

func newExactBasis(cols int) *exactBasis {
	return &exactBasis{cols: cols, scratch: make([]uint64, cols)}
}

func (b *exactBasis) rank() int { return len(b.rows) }

// reset empties the basis, keeping its row storage.
func (b *exactBasis) reset() {
	b.spare = append(b.spare, b.rows...)
	b.rows = b.rows[:0]
	b.pivots = b.pivots[:0]
}

// add reduces row (length cols, entries in GF(modP)) against the basis and
// keeps it when it is independent; it reports whether the rank grew. row is
// overwritten.
func (b *exactBasis) add(row []uint64) bool {
	for i, prow := range b.rows {
		f := row[b.pivots[i]]
		if f == 0 {
			continue
		}
		for c, v := range prow {
			if v != 0 {
				row[c] = subP(row[c], mulP(f, v))
			}
		}
	}
	pivot := -1
	for c, v := range row {
		if v != 0 {
			pivot = c
			break
		}
	}
	if pivot < 0 {
		return false
	}
	inv := invP(row[pivot])
	var kept []uint64
	if n := len(b.spare); n > 0 {
		kept = b.spare[n-1]
		b.spare = b.spare[:n-1]
		clear(kept)
	} else {
		kept = make([]uint64, b.cols)
	}
	for c, v := range row {
		if v != 0 {
			kept[c] = mulP(v, inv)
		}
	}
	b.rows = append(b.rows, kept)
	b.pivots = append(b.pivots, pivot)
	return true
}

// addLinks adds the 0/1 row of a path given by its link IDs.
func (b *exactBasis) addLinks(links []int) bool {
	row := b.scratch
	clear(row)
	for _, l := range links {
		row[l] = addP(row[l], 1)
	}
	return b.add(row)
}

// exactRank is the rank over GF(modP) of an integer matrix.
func exactRank(m [][]int64, cols int) int {
	b := newExactBasis(cols)
	row := make([]uint64, cols)
	for _, r := range m {
		for c, v := range r {
			row[c] = toP(v)
		}
		b.add(row)
	}
	return b.rank()
}

// pathRank is the exact rank of the 0/1 rows of the given paths, each
// given by its link IDs.
func pathRank(links int, paths [][]int) int {
	return newExactBasis(links).pathRank(paths)
}

// pathRank resets the basis and returns the exact rank of the paths.
func (b *exactBasis) pathRank(paths [][]int) int {
	b.reset()
	for _, p := range paths {
		b.addLinks(p)
	}
	return b.rank()
}
