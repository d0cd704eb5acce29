package main

import (
	"math/big"
	"math/rand/v2"
	"testing"
)

// ratRank is Gaussian elimination over the rationals: the reference the
// modular rank is held to.
func ratRank(m [][]int64, cols int) int {
	rows := make([][]*big.Rat, len(m))
	for i, r := range m {
		rows[i] = make([]*big.Rat, cols)
		for c := 0; c < cols; c++ {
			rows[i][c] = new(big.Rat).SetInt64(r[c])
		}
	}
	rank := 0
	for c := 0; c < cols && rank < len(rows); c++ {
		p := -1
		for i := rank; i < len(rows); i++ {
			if rows[i][c].Sign() != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		rows[rank], rows[p] = rows[p], rows[rank]
		for i := rank + 1; i < len(rows); i++ {
			if rows[i][c].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Quo(rows[i][c], rows[rank][c])
			for k := c; k < cols; k++ {
				rows[i][k].Sub(rows[i][k], new(big.Rat).Mul(f, rows[rank][k]))
			}
		}
		rank++
	}
	return rank
}

func TestModArithmetic(t *testing.T) {
	for _, a := range []uint64{1, 2, 3, 12345, modP - 1, modP - 2, 1 << 60} {
		if got := mulP(a, invP(a)); got != 1 {
			t.Fatalf("a·a⁻¹ = %d for a = %d", got, a)
		}
	}
	if got := mulP(modP-1, modP-1); got != 1 { // (−1)² = 1
		t.Fatalf("(−1)² = %d", got)
	}
	if got := toP(-1); got != modP-1 {
		t.Fatalf("toP(−1) = %d", got)
	}
	if got := addP(modP-1, 1); got != 0 {
		t.Fatalf("(p−1)+1 = %d", got)
	}
}

func TestExactRankHandWorked(t *testing.T) {
	cases := []struct {
		name string
		m    [][]int64
		cols int
		want int
	}{
		{"empty", nil, 3, 0},
		{"zero rows", [][]int64{{0, 0, 0}, {0, 0, 0}}, 3, 0},
		{"identity", [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, 3, 3},
		{"duplicate rows", [][]int64{{1, 1, 0}, {1, 1, 0}}, 3, 1},
		{"scaled row", [][]int64{{2, 4}, {1, 2}}, 2, 1},
		// r3 = r1 − r2.
		{"signed combination", [][]int64{{1, 1, 0}, {0, 1, 1}, {1, 0, -1}}, 3, 2},
		// det = 2: singular over GF(2), full rank over Q and GF(p).
		{"even determinant", [][]int64{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}}, 3, 3},
		// Paths a–c, b–d, a–d, b–c over a chain a–b–c–d with links
		// {ab, bc, cd}: a–d = a–c + b–d − b–c.
		{"paths", [][]int64{{1, 1, 0}, {0, 1, 1}, {1, 1, 1}, {0, 1, 0}}, 3, 3},
		{"wide", [][]int64{{1, 0, 1, 0, 1}, {0, 1, 0, 1, 0}}, 5, 2},
		{"tall", [][]int64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, 2, 2},
	}
	for _, tc := range cases {
		if got := exactRank(tc.m, tc.cols); got != tc.want {
			t.Errorf("%s: rank %d, want %d", tc.name, got, tc.want)
		}
		if got := ratRank(tc.m, tc.cols); got != tc.want {
			t.Errorf("%s: rational reference rank %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestExactRankOneSided pins the one case where GF(p) rank falls below the
// rational rank: p divides every maximal minor.
func TestExactRankOneSided(t *testing.T) {
	m := [][]int64{{modP, 0}, {0, 1}}
	if got, want := exactRank(m, 2), 1; got != want {
		t.Fatalf("rank mod p = %d, want %d", got, want)
	}
	if got := ratRank(m, 2); got != 2 {
		t.Fatalf("rational rank = %d, want 2", got)
	}
}

func TestExactRankMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.IntN(9), 1+rng.IntN(9)
		m := make([][]int64, rows)
		for i := range m {
			m[i] = make([]int64, cols)
			for c := range m[i] {
				// Sparse small integers, often dependent.
				if rng.IntN(3) == 0 {
					m[i][c] = int64(rng.IntN(5)) - 2
				}
			}
			if i > 0 && rng.IntN(4) == 0 { // a combination of two earlier rows
				a, b := rng.IntN(i), rng.IntN(i)
				for c := range m[i] {
					m[i][c] = 2*m[a][c] - 3*m[b][c]
				}
			}
		}
		if got, want := exactRank(m, cols), ratRank(m, cols); got != want {
			t.Fatalf("trial %d: rank mod p %d, rational %d for %v", trial, got, want, m)
		}
	}
}

func TestPathRankMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 100; trial++ {
		links := 4 + rng.IntN(12)
		n := 1 + rng.IntN(15)
		paths := make([][]int, n)
		m := make([][]int64, n)
		for i := range paths {
			m[i] = make([]int64, links)
			for _, l := range rng.Perm(links)[:1+rng.IntN(links)] {
				paths[i] = append(paths[i], l)
				m[i][l] = 1
			}
		}
		if got, want := pathRank(links, paths), ratRank(m, links); got != want {
			t.Fatalf("trial %d: path rank %d, rational %d", trial, got, want)
		}
	}
}
