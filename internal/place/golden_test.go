package place

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
)

// placementDigest is an FNV-1a digest of a placement's shape and of
// every cell's assignment in row-major order.
func placementDigest(m *ccmatrix.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	put(m.Rows)
	put(m.Cols)
	put(m.Bits)
	put(m.Scale)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			put(m.At(geom.Cell{Row: r, Col: c}))
		}
	}
	return h.Sum64()
}

// goldenPlacementCases builds every placement TestGoldenPlacements
// pins, keyed style/bits; a block-chessboard structure the array
// cannot hold maps to a nil matrix.
func goldenPlacementCases(t *testing.T) map[string]*ccmatrix.Matrix {
	t.Helper()
	out := make(map[string]*ccmatrix.Matrix)
	for bits := 5; bits <= MaxBits; bits++ {
		m, err := NewSpiral(bits)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("spiral/%d", bits)] = m
		if m, err = NewChessboard(bits); err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("chessboard/%d", bits)] = m
		for _, p := range []BCParams{{2, 1}, {4, 2}, {6, 3}} {
			m, err := NewBlockChessboard(bits, p)
			if err != nil {
				m = nil
			}
			out[fmt.Sprintf("bc-%d-%d/%d", p.CoreBits, p.BlockCells, bits)] = m
		}
	}
	return out
}

// TestGoldenPlacements requires every spiral, chessboard and
// block-chessboard placement at 5–12 bits to match a digest captured
// before the block-chessboard corridor sort was reworked, cell for
// cell. Routing, extraction and every analysis downstream assume
// placement never moves. Block-chessboard structures run at
// (CoreBits, BlockCells) of (2, 1), (4, 2) and (6, 3); a structure the
// array cannot hold must keep failing (digest 0).
func TestGoldenPlacements(t *testing.T) {
	cases := goldenPlacementCases(t)
	keys := make([]string, 0, len(cases))
	for k := range cases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(goldenPlacements) != len(cases) {
		t.Fatalf("%d placements, %d goldens", len(cases), len(goldenPlacements))
	}
	for _, k := range keys {
		d := uint64(0)
		if m := cases[k]; m != nil {
			d = placementDigest(m)
		}
		if want, ok := goldenPlacements[k]; !ok || d != want {
			t.Errorf("%s: digest %#x, golden %#x", k, d, want)
		}
	}
}

// goldenPlacements holds the captured digests, keyed style/bits.
var goldenPlacements = map[string]uint64{
	"spiral/5":      0xdf22e5f2b2ac5640,
	"spiral/6":      0xeabd93c32593e383,
	"spiral/7":      0x271c9460f1117d25,
	"spiral/8":      0xf1962614955c684d,
	"spiral/9":      0xdcd4d7bb4c7b6c04,
	"spiral/10":     0x6348c0d9bd998f,
	"spiral/11":     0x403129e16685455d,
	"spiral/12":     0xcf2159d4753c1e49,
	"chessboard/5":  0xd80626923d0c19a2,
	"chessboard/6":  0xa5a793128b93c783,
	"chessboard/7":  0xd2ee6189b1c6daa0,
	"chessboard/8":  0x870c1a6d2cd0fe8d,
	"chessboard/9":  0x2186fccd9f1c376e,
	"chessboard/10": 0xab0af111a46effcf,
	"chessboard/11": 0x86ce1347bbe6b42c,
	"chessboard/12": 0x960a12963100c109,
	"bc-2-1/5":      0xc0acb027418a34c0,
	"bc-2-1/6":      0x7a3c4c1a543dccc3,
	"bc-2-1/7":      0xdc847cf9e161ed25,
	"bc-2-1/8":      0x615e64dec13f918d,
	"bc-2-1/9":      0x5e93b8dc1c5332e4,
	"bc-2-1/10":     0x6d86fad8a4a82f4f,
	"bc-2-1/11":     0x57e0cc5ba8cce61d,
	"bc-2-1/12":     0xfd77fae2fd66ad09,
	"bc-4-2/5":      0x3718d9e2d0a5680,
	"bc-4-2/6":      0xce01d6cb376b53c3,
	"bc-4-2/7":      0x575414754f571665,
	"bc-4-2/8":      0x83a05160a8a9590d,
	"bc-4-2/9":      0xc8e36435d1530a4,
	"bc-4-2/10":     0xe8ea388be663808f,
	"bc-4-2/11":     0x48fc55929edb615d,
	"bc-4-2/12":     0x19115680428705c9,
	"bc-6-3/5":      0x0,
	"bc-6-3/6":      0x0,
	"bc-6-3/7":      0x0,
	"bc-6-3/8":      0x2f4621996813f58d,
	"bc-6-3/9":      0x77857da9824d92e4,
	"bc-6-3/10":     0x706897abbb15408f,
	"bc-6-3/11":     0x35fbcb731bd9d1d,
	"bc-6-3/12":     0xefc87bd803a83389,
}
