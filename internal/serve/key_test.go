package serve

import "testing"

// TestCacheKeyPinned holds the result-cache key to the exact
// serve/generate/v3 digests an existing -store-dir was indexed under: a
// change to the canonical form or to the key builder's field order moves
// these strings and would silently cold-start every stored result. Rows
// that canonicalize together (spelled-out defaults, ignored fields, the
// skip_nonlinearity theta rule, max_parallel 0 and 1, fft off and auto)
// share a digest.
func TestCacheKeyPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		req  GenerateRequest
		want string
	}{
		{"defaults omitted", GenerateRequest{Bits: 8}, "9567f8dffb01c7961ddebdc5c308097c"},
		{"defaults spelled out", GenerateRequest{Bits: 8, Style: "spiral", MaxParallel: 1, ThetaSteps: 8,
			TechNode: "finfet12", Workers: 3, Cache: "default", FFT: "auto"}, "9567f8dffb01c7961ddebdc5c308097c"},
		{"chessboard", GenerateRequest{Bits: 8, Style: "chessboard"}, "f911da6b2cb78d835987e6551ec3eb5d"},
		{"block chessboard, default structure", GenerateRequest{Bits: 8, Style: "block-chessboard"},
			"59f808b55abbd2c06af78a19be301807"},
		{"block chessboard, core_bits and block_cells", GenerateRequest{Bits: 8, Style: "block-chessboard",
			CoreBits: 4, BlockCells: 2}, "a97a16ec5dad82f82b270241459ed389"},
		{"annealed", GenerateRequest{Bits: 6, Style: "annealed"}, "98459daba92aa1587a498b7b0cd4af1b"},
		{"annealed with seed and moves", GenerateRequest{Bits: 6, Style: "annealed", AnnealSeed: 7, AnnealMoves: 5000},
			"aebff9ba5de0b855c65e5f85c778f9ef"},
		{"spiral ignores structure and anneal fields", GenerateRequest{Bits: 8, CoreBits: 4, BlockCells: 2,
			AnnealSeed: 7, AnnealMoves: 5000}, "9567f8dffb01c7961ddebdc5c308097c"},
		{"best_bc", GenerateRequest{Bits: 8, BestBC: true}, "fec4639e5c0acde3ed1024f3f4b6d6a6"},
		{"best_bc ignores style and structure", GenerateRequest{Bits: 8, Style: "chessboard", CoreBits: 4,
			BlockCells: 2, BestBC: true}, "fec4639e5c0acde3ed1024f3f4b6d6a6"},
		{"skip_nonlinearity", GenerateRequest{Bits: 8, SkipNonlinearity: true}, "32b125eff100b2acd8d4d08ffd088587"},
		{"skip_nonlinearity with theta_steps", GenerateRequest{Bits: 8, ThetaSteps: 5, SkipNonlinearity: true},
			"32b125eff100b2acd8d4d08ffd088587"},
		{"theta_steps", GenerateRequest{Bits: 8, ThetaSteps: 5}, "6bb4221601f952fc5d79a7a5cf604065"},
		{"fft off", GenerateRequest{Bits: 8, FFT: "off"}, "9567f8dffb01c7961ddebdc5c308097c"},
		{"bulk65", GenerateRequest{Bits: 8, TechNode: "bulk65"}, "85bfc73fa9bcfd6fde5fb04cbd92da2c"},
		{"max_parallel 0", GenerateRequest{Bits: 10}, "7ccf2c97bb6a1b0cbca2ebad847b864e"},
		{"max_parallel 1", GenerateRequest{Bits: 10, MaxParallel: 1}, "7ccf2c97bb6a1b0cbca2ebad847b864e"},
		{"max_parallel 2", GenerateRequest{Bits: 10, MaxParallel: 2}, "f027960fe6c47b062bfc6d3f594f8938"},
		{"every field set", GenerateRequest{Bits: 12, Style: "block-chessboard", CoreBits: 6, BlockCells: 4,
			MaxParallel: 3, ThetaSteps: 16, TechNode: "bulk65", Workers: -1, Cache: "bypass", FFT: "off"},
			"cbf171edaf475cb4425cfebd6d1e05f4"},
	} {
		if got := cacheKey(c.req); got != c.want {
			t.Errorf("%s: cacheKey = %s, want %s", c.name, got, c.want)
		}
	}
}
