package extract

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// goldenBit pins one BitNet: its floats as math.Float64bits, its node
// count and root, and FNV-1a digests of CellNodes and of the stamped
// network (every resistor in insertion order, every node capacitance).
type goldenBit struct {
	tau, rWire, rVia, cWire uint64
	nodes, root             int
	cells, net              uint64
}

// goldenSummary pins one promotion loop's final Summary.
type goldenSummary struct {
	par                       []int
	cts, cWire, cbb, wl, area uint64
	viaCuts, cgIters          int
	bits                      []goldenBit
}

func digest(vals ...func(put func(uint64))) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, f := range vals {
		f(put)
	}
	return h.Sum64()
}

func goldenOf(s *Summary, parOf []int) goldenSummary {
	g := goldenSummary{
		par:     append([]int(nil), parOf...),
		cts:     math.Float64bits(s.CTSfF),
		cWire:   math.Float64bits(s.CWirefF),
		cbb:     math.Float64bits(s.CBBfF),
		wl:      math.Float64bits(s.WirelengthUm),
		area:    math.Float64bits(s.AreaUm2),
		viaCuts: s.ViaCuts,
		cgIters: s.CGIterations,
	}
	for _, b := range s.Bits {
		cells := digest(func(put func(uint64)) {
			for _, c := range b.CellNodes {
				put(uint64(c))
			}
		})
		net := digest(func(put func(uint64)) {
			for _, r := range b.Net.Resistors() {
				put(uint64(r.A))
				put(uint64(r.B))
				put(math.Float64bits(r.Ohm))
			}
			for _, c := range b.Net.Caps() {
				put(math.Float64bits(c))
			}
		})
		g.bits = append(g.bits, goldenBit{
			tau:   math.Float64bits(b.TauSec),
			rWire: math.Float64bits(b.RWireOhm),
			rVia:  math.Float64bits(b.RViaOhm),
			cWire: math.Float64bits(b.CWirefF),
			nodes: b.Net.NumNodes(),
			root:  b.Root,
			cells: cells,
			net:   net,
		})
	}
	return g
}

func (g goldenSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{par: %#v, cts: %#x, cWire: %#x, cbb: %#x, wl: %#x, area: %#x, viaCuts: %d, cgIters: %d, bits: []goldenBit{\n",
		g.par, g.cts, g.cWire, g.cbb, g.wl, g.area, g.viaCuts, g.cgIters)
	for _, x := range g.bits {
		fmt.Fprintf(&b, "\t{%#x, %#x, %#x, %#x, %d, %d, %#x, %#x},\n",
			x.tau, x.rWire, x.rVia, x.cWire, x.nodes, x.root, x.cells, x.net)
	}
	b.WriteString("}},")
	return b.String()
}

// promote runs the flow's route→extract loop at MaxParallel 2: extract,
// promote the critical bit to two wires, re-route, until the critical
// bit is already parallel.
func promote(ctx context.Context, t *testing.T, m *ccmatrix.Matrix, tch *tech.Technology) (*Summary, []int) {
	t.Helper()
	parOf := make([]int, m.Bits+1)
	for i := range parOf {
		parOf[i] = 1
	}
	for iter := 0; ; iter++ {
		l, err := route.RouteContext(ctx, m, tch, parOf)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ExtractContext(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		crit := s.CriticalBit()
		if parOf[crit] >= 2 || iter > m.Bits+1 {
			return s, parOf
		}
		parOf[crit] = 2
	}
}

// TestGoldenPromotionLoop requires the final Summary of the promotion
// loop to match values captured before the RC-tree analysis and the
// per-bit network build were reworked, bit for bit: every Summary and
// BitNet float, node counts, cell nodes and the stamped networks. The
// stage memo, the serve cache and the benchmark's reference metrics
// all assume extraction never moves.
func TestGoldenPromotionLoop(t *testing.T) {
	tch := tech.FinFET12()
	ctx := par.WithWorkers(context.Background(), 2)
	for _, style := range []string{"spiral", "chessboard", "block-chessboard"} {
		for _, bits := range []int{6, 8, 10, 12} {
			key := fmt.Sprintf("%s/%d", style, bits)
			t.Run(key, func(t *testing.T) {
				var m *ccmatrix.Matrix
				var err error
				switch style {
				case "spiral":
					m, err = place.NewSpiral(bits)
				case "chessboard":
					m, err = place.NewChessboard(bits)
				default:
					m, err = place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
				}
				if err != nil {
					t.Fatal(err)
				}
				s, parOf := promote(ctx, t, m, tch)
				got := goldenOf(s, parOf)
				if want := goldenPromotion[key]; !reflect.DeepEqual(got, want) {
					t.Errorf("summary differs from the golden\ngot  %q: %s\nwant %q: %s", key, got, key, want)
				}
			})
		}
	}
}

// goldenPromotion holds the captured summaries, keyed style/bits.
var goldenPromotion = map[string]goldenSummary{
	"spiral/6": {par: []int{1, 1, 1, 1, 2, 2, 2}, cts: 0x3f96fbc507dc6d51, cWire: 0x404073f7ced91686, cbb: 0x3ff227c8e37ad5cc, wl: 0x4073ea7ef9db22d1, area: 0x406e3b256ffc115e, viaCuts: 58, cgIters: 0, bits: []goldenBit{
		{0x3d7bc48e5612a4d3, 0x406593f7ced91687, 0x4054000000000000, 0x3ffafd60e94ee392, 6, 4, 0xa8c7f832281a39c5, 0xe81b5404b45b875},
		{0x3d7fefd50cd5d606, 0x406a4bc6a7ef9db4, 0x4054000000000000, 0x3ffc6a7ef9db22d2, 6, 4, 0xa8c7f832281a39c5, 0x138219089db483a9},
		{0x3d8792516f4d3b5b, 0x407c7126e978d4fd, 0x4069000000000000, 0x40117f90a4279215, 12, 10, 0x692558b056101a44, 0xa6f1a1acbcefdeb9},
		{0x3d992a1c3a7cbaa0, 0x407f170a3d70a3d6, 0x4069000000000000, 0x4012c17cc5dca6ee, 14, 12, 0x64dbcbc3ab5bf1a5, 0x93470be581fe8458},
		{0x3d96b512ad42f293, 0x406dee147ae147ae, 0x4049000000000000, 0x40210f009598caae, 18, 16, 0xb0099f969b546f25, 0x1950424fdaf8dea3},
		{0x3da7ae6d0c3c8e11, 0x407034395810624e, 0x4049000000000000, 0x40236199780baa58, 26, 24, 0x3f71fbaf4605ff25, 0xdea10f5dc0345837},
		{0x3da504cf742d5b1e, 0x405a051eb851eb83, 0x4024000000000000, 0x400a5aee631f8a0d, 35, 33, 0x8935dd2422f6eb25, 0xc0086613c8e61f91},
	}},
	"spiral/8": {par: []int{1, 1, 1, 1, 1, 1, 2, 2, 2}, cts: 0x3fb70cf75f478e3b, cWire: 0x404c1b280f12c277, cbb: 0x3ff92ce1e05a4846, wl: 0x4090c29fbe76c8ab, area: 0x408bde2ac3222923, viaCuts: 42, cgIters: 0, bits: []goldenBit{
		{0x3d885a5635106384, 0x40743eb851eb851e, 0x4054000000000000, 0x4008fae147ae147a, 6, 4, 0xa8c7f832281a39c5, 0x2411b3d3f96c41de},
		{0x3d8ac2040514d92a, 0x4076d3f7ced91688, 0x4054000000000000, 0x4008e8a71de69ad5, 6, 4, 0xa8c7f832281a39c5, 0xf5b46e3bf589436},
		{0x3d91d0ffb7462115, 0x4087b9999999999a, 0x4069000000000000, 0x401c264e7e125496, 12, 10, 0x692558b056101a44, 0x7643fe81edf66368},
		{0x3da17b0f806c9e31, 0x408912b020c49ba7, 0x4069000000000000, 0x401e591e13e73d92, 14, 12, 0x64dbcbc3ab5bf1a5, 0xe1908872408b9805},
		{0x3db3fb42ed3867df, 0x407de189374bc6a9, 0x405e000000000000, 0x4011875f6fd21ff3, 15, 13, 0xb0099f969b546f25, 0xb0e51a8a93329d3a},
		{0x3dc031be0eed60fc, 0x4089b33333333334, 0x4069000000000000, 0x401dcf56eac86058, 26, 24, 0x3f71fbaf4605ff25, 0x905bb2750c430b92},
		{0x3dbcf893fc52744c, 0x406874395810624d, 0x4034000000000000, 0x40197dbf487fcb94, 37, 35, 0x8935dd2422f6eb25, 0x3ff6c3b3679433da},
		{0x3dc73ce93e7d2f04, 0x406ea395810624df, 0x4034000000000000, 0x401e96bb98c7e285, 69, 67, 0x310e42af98fb7125, 0xf5a0bf2431ba2b9a},
		{0x3dc9518cde32cc1c, 0x40770e147ae147b7, 0x4024000000000000, 0x4026240b780346e0, 131, 129, 0xdaae756b97d6bf25, 0xf5276226334b25cf},
	}},
	"spiral/10": {par: []int{1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2}, cts: 0x3fd71143f522566f, cWire: 0x4062e98a86d71f0e, cbb: 0x4008fa62314d7fdf, wl: 0x40af23810624dd1c, area: 0x40aa99a415f45e0a, viaCuts: 46, cgIters: 0, bits: []goldenBit{
		{0x3d9a119e4b9c76b6, 0x4083cd70a3d70a3e, 0x4054000000000000, 0x4018bd566cf41f21, 6, 4, 0xa8c7f832281a39c5, 0x479e18c70c27d145},
		{0x3d9ae6db64c86993, 0x40851810624dd2f1, 0x4054000000000000, 0x401727bb2fec56d5, 6, 4, 0xa8c7f832281a39c5, 0xbab917aa6cb8dc10},
		{0x3da090d6969da062, 0x40958ae147ae147c, 0x4069000000000000, 0x40298ccdf4143973, 12, 10, 0x692558b056101a44, 0x53bf5702bc444f5d},
		{0x3dacd1555afed0c0, 0x4096376c8b439581, 0x4069000000000000, 0x402aa635befeadef, 14, 12, 0x64dbcbc3ab5bf1a5, 0x546babc29bac1a65},
		{0x3dc1e70af6b7aa29, 0x40889ed916872b02, 0x405e000000000000, 0x401dc74538ef34d8, 15, 13, 0xb0099f969b546f25, 0xce86765d8c5228da},
		{0x3dc835d77f284921, 0x409687ae147ae147, 0x4069000000000000, 0x40299b13165d3997, 26, 24, 0x3f71fbaf4605ff25, 0xb06c92de2ead7088},
		{0x3ddd6888bb0393ee, 0x4085e10624dd2f1a, 0x4054000000000000, 0x40176bb98c7e2824, 37, 35, 0x8935dd2422f6eb25, 0x7ef8d54a01cfddc0},
		{0x3dea70713585bcfc, 0x4088f8b439581064, 0x4054000000000000, 0x4019f837b4a2339e, 69, 67, 0x310e42af98fb7125, 0x1f20bae0233061c},
		{0x3de66e47a0c72b6a, 0x4080cef9db22d0ea, 0x4034000000000000, 0x4030d2f1a9fbe76e, 133, 131, 0xdaae756b97d6bf25, 0xd93064c4b1131188},
		{0x3df1f1aa1819f852, 0x408a1322d0e56037, 0x4034000000000000, 0x403917f62b6ae7c4, 261, 259, 0x47b5eeb1c24f5b25, 0x75fa8fc9f266b9e4},
		{0x3df03b5ede70cc42, 0x4096611eb851eb57, 0x4024000000000000, 0x4044eacd9e83e3e7, 515, 513, 0x3accd01c5be01425, 0x6b080dd3c6259c3},
	}},
	"spiral/12": {par: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2}, cts: 0x3ff711b60ae967f1, cWire: 0x407d0d53cddd6e7e, cbb: 0x4018e12259c71bac, wl: 0x40cdd37ced91698a, area: 0x40c9d467381d7dc7, viaCuts: 50, cgIters: 0, bits: []goldenBit{
		{0x3db097a89f1e1b41, 0x409394cccccccccd, 0x4054000000000000, 0x40289e90ff972474, 6, 4, 0xa8c7f832281a39c5, 0xf0e9d510f2dbb01e},
		{0x3db038636de527be, 0x40943a1cac083128, 0x4054000000000000, 0x4026474538ef34d8, 6, 4, 0xa8c7f832281a39c5, 0x32d171adf31fcc55},
		{0x3db33df98f23685a, 0x40a473851eb851ec, 0x4069000000000000, 0x4038400daf152be0, 12, 10, 0x692558b056101a44, 0x3fe50f3cc32a75db},
		{0x3dbc7ab06ba5a9c6, 0x40a4c9cac083126e, 0x4069000000000000, 0x4038ccc1948a661d, 14, 12, 0x64dbcbc3ab5bf1a5, 0x97f64671e71d2ccf},
		{0x3dd1a530d8628212, 0x4095fd810624dd31, 0x405e000000000000, 0x402b23886594af50, 15, 13, 0xb0099f969b546f25, 0x22f3eb7c9460f090},
		{0x3dd4cdf528b4106b, 0x40a4f1eb851eb851, 0x4069000000000000, 0x403780f12c27a637, 26, 24, 0x3f71fbaf4605ff25, 0x1a440d45b843bc64},
		{0x3ded18262c035d39, 0x40949e978d4fdf3d, 0x4054000000000000, 0x4026694467381d7f, 37, 35, 0x8935dd2422f6eb25, 0x46a548e12ed5cdea},
		{0x3dfb40e68c0d95b9, 0x40962a6e978d4fe0, 0x4054000000000000, 0x4027af837b4a233b, 69, 67, 0x310e42af98fb7125, 0xe416bdbdbb2fdd7},
		{0x3e09812be718165c, 0x409a7978d4fdf3bb, 0x4054000000000000, 0x402b83126e978d52, 133, 131, 0xdaae756b97d6bf25, 0x5edb3b3a1febef09},
		{0x3e17381dafff37a5, 0x40a1ded0e5604184, 0x4054000000000000, 0x4031e40b780346d4, 261, 259, 0x47b5eeb1c24f5b25, 0xf2f2f5d7cecc99fc},
		{0x3e13045c93c42498, 0x409b709ba5e353ca, 0x4034000000000000, 0x404a781d7dbf4841, 517, 515, 0x3accd01c5be01425, 0x1e57fb44dc3c4028},
		{0x3e1b54d8fc7c3025, 0x40a7c5439581065c, 0x4034000000000000, 0x40564cd9e83e41fd, 1029, 1027, 0x21b84c137ccdb625, 0x23e1bc9fa5936cb4},
		{0x3e16509cef159dec, 0x40b6487ae147aeea, 0x4024000000000000, 0x406494af4f0d84ac, 2051, 2049, 0x217a8ebb0efc9725, 0xc96d296d84cf606d},
	}},
	"chessboard/6": {par: []int{1, 1, 1, 1, 1, 1, 2}, cts: 0x3f9734cfeb653e47, cWire: 0x405e8eb5b2d4d3f8, cbb: 0x40288d5211ab0eba, wl: 0x408224bc6a7ef9db, area: 0x4070bf0995aaf790, viaCuts: 224, cgIters: 0, bits: []goldenBit{
		{0x3d5cad4bb3304fe8, 0x4037c28f5c28f5c2, 0x4044000000000000, 0x3fca43fe5c91d14d, 4, 2, 0xa8c7f832281a39c5, 0x673ca0903ee28cf8},
		{0x3d80f30ab66c0d83, 0x406b3126e978d500, 0x4054000000000000, 0x4001e2dc21785d28, 6, 4, 0xa8c7f832281a39c5, 0x869f8179c5d9f293},
		{0x3d86f67b99589be4, 0x407968f5c28f5c2a, 0x4064000000000000, 0x4010f648fcc913db, 10, 8, 0x692558b056101a44, 0xeedf3fedcf6933d0},
		{0x3d9def7c47dbcc94, 0x40908395810624dd, 0x4076800000000000, 0x4025f49bca518aec, 22, 20, 0x64dbcbc3ab5bf1a5, 0xf064f280f3789ba5},
		{0x3da8ce3a98c4d30d, 0x4099f2b020c49ba8, 0x4082c00000000000, 0x403159053108fe1d, 38, 36, 0xb0099f969b546f25, 0xcf96fb5393b5527a},
		{0x3db80876d95a6c0f, 0x40a6f43958106251, 0x408f400000000000, 0x403d5704f1d7484f, 66, 64, 0x3f71fbaf4605ff25, 0x1a752bd7df572e9a},
		{0x3db9db0a81777bca, 0x409ec65e353f7cf5, 0x407a400000000000, 0x40518a2c830155d1, 116, 114, 0x8935dd2422f6eb25, 0xc6ab35cc3fd6f11f},
	}},
	"chessboard/8": {par: []int{1, 1, 1, 1, 1, 1, 1, 1, 2}, cts: 0x3fb74886818ee0e2, cWire: 0x40808e4d013a92c9, cbb: 0x4053696b5e5dafbd, wl: 0x40a41bd70a3d7097, area: 0x4090607b352a8439, viaCuts: 770, cgIters: 0, bits: []goldenBit{
		{0x3d5cad4bb3304fe8, 0x4037c28f5c28f5c2, 0x4044000000000000, 0x3fca43fe5c91d14d, 4, 2, 0xa8c7f832281a39c5, 0x673ca0903ee28cf8},
		{0x3d8d1fbfba82ec62, 0x40776353f7ced916, 0x4054000000000000, 0x40102ef7abe53d4d, 6, 4, 0xa8c7f832281a39c5, 0xd6caac26c31f1076},
		{0x3d92402fd76bbdd9, 0x40860c8b43958106, 0x4064000000000000, 0x401eabba9517ed3d, 10, 8, 0x692558b056101a44, 0xa718e7e03530bd77},
		{0x3dacf65fa6017326, 0x409c795810624dd4, 0x4076800000000000, 0x4033a6ace6a2f6e5, 22, 20, 0x64dbcbc3ab5bf1a5, 0x82be3e0b24cb69fb},
		{0x3db85af365b596d6, 0x40a5f4395810624e, 0x4082c00000000000, 0x403f467d3013e2b1, 38, 36, 0xb0099f969b546f25, 0xbbbddad10c709da6},
		{0x3dc853cf54c1d076, 0x40b3947ae147ae15, 0x408f400000000000, 0x404a12c96dbb6935, 66, 64, 0x3f71fbaf4605ff25, 0xe8e3f798f8139d26},
		{0x3dd7dfe606e6ad66, 0x40c1ef126e978d50, 0x409ea00000000000, 0x405935c5680ce7fb, 130, 128, 0x8935dd2422f6eb25, 0xf14e3ed6ef02a4ac},
		{0x3de46889183d5284, 0x40c76be76c8b4394, 0x40a9500000000000, 0x405ee3779ab2e5da, 226, 224, 0x310e42af98fb7125, 0xa7aaeb8746a2ce1f},
		{0x3de5d9c4e783d533, 0x40bd80df3b645a33, 0x4096d00000000000, 0x4070c0c6816a3c12, 420, 418, 0xdaae756b97d6bf25, 0x686075ddb1030235},
	}},
	"chessboard/10": {par: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, cts: 0x3fd73698428184ce, cWire: 0x40a165c1c8216cd6, cbb: 0x40798074201bb807, wl: 0x40c562df3b645ab8, area: 0x40b01318fc504817, viaCuts: 2820, cgIters: 0, bits: []goldenBit{
		{0x3d5cad4bb3304fe8, 0x4037c28f5c28f5c3, 0x4044000000000000, 0x3fca43fe5c91d14f, 4, 2, 0xa8c7f832281a39c5, 0x86390f36646d2333},
		{0x3d9e74a4648d0279, 0x40856e147ae147af, 0x4054000000000000, 0x401ecc40fd67e6de, 6, 4, 0xa8c7f832281a39c5, 0x41e5183292f45366},
		{0x3da1b9a65411e61d, 0x409453126e978d50, 0x4064000000000000, 0x402d12a3aadc28d4, 10, 8, 0x692558b056101a44, 0x687833aa52c0540a},
		{0x3dc159e84f25c6f9, 0x40aa29374bc6a7ef, 0x4076800000000000, 0x4042a80d7072a076, 22, 20, 0x64dbcbc3ab5bf1a5, 0xef6fbba4fec9ad77},
		{0x3dcd0ce4b7b87519, 0x40b3eccccccccccd, 0x4082c00000000000, 0x404d896d7d4f024c, 38, 36, 0xb0099f969b546f25, 0x4c2396b95800c04},
		{0x3ddcc54f1264eea3, 0x40c1e872b020c49b, 0x408f400000000000, 0x4058c892f8f51a0a, 66, 64, 0x3f71fbaf4605ff25, 0x5a0e7f3dfbfd8fc7},
		{0x3deccaee31564c70, 0x40d02249ba5e353e, 0x409ea00000000000, 0x40680b0666c6450f, 130, 128, 0x8935dd2422f6eb25, 0x460751cb5f2790},
		{0x3df69f1ac2f85dee, 0x40d4a83126e978d3, 0x40a9500000000000, 0x406bbc2de73dceac, 226, 224, 0x310e42af98fb7125, 0x503ecc1929b17a6c},
		{0x3e0728f5764c9b2a, 0x40e3cedd2f1a9fc6, 0x40b9280000000000, 0x407c8e61bef023ab, 450, 448, 0xdaae756b97d6bf25, 0x65a41974f0546736},
		{0x3e12f23df717fa68, 0x40e778a3d70a3d5d, 0x40c6940000000000, 0x407fbcb528d6b8da, 834, 832, 0x47b5eeb1c24f5b25, 0xadf7f61932833d84},
		{0x3e13817faa5a46a9, 0x40dc8dd0624dd2f8, 0x40b5540000000000, 0x4090381ba554298c, 1604, 1602, 0x3accd01c5be01425, 0xac5694cea78e82be},
	}},
	"chessboard/12": {par: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, cts: 0x3ff726867c866347, cWire: 0x40c1ed9b7e90ff24, cbb: 0x409df00d01b4700f, wl: 0x40e62f8b439580b1, area: 0x40cfbb482be8bc18, viaCuts: 10758, cgIters: 0, bits: []goldenBit{
		{0x3d5cad4bb3304fe8, 0x4037c28f5c28f5c3, 0x4044000000000000, 0x3fca43fe5c91d14f, 4, 2, 0xa8c7f832281a39c5, 0x86390f36646d2333},
		{0x3db32a4428dc3365, 0x40946c49ba5e353f, 0x4054000000000000, 0x402db0f27bb2fe52, 6, 4, 0xa8c7f832281a39c5, 0x2d8a16007bd85da2},
		{0x3db534581962a7c3, 0x40a370b439581062, 0x4064000000000000, 0x403c59e4b9e1c6e7, 10, 8, 0x692558b056101a44, 0x394f3fe907028094},
		{0x3dd8fe4d3ae78cc5, 0x40b8fc8b43958107, 0x4076800000000000, 0x40522f972237a9e9, 22, 20, 0x64dbcbc3ab5bf1a5, 0x126236d42c2a8010},
		{0x3de4b1d17dc7e038, 0x40c2e4fdf3b645a1, 0x4082c00000000000, 0x405ccc72258790eb, 38, 36, 0xb0099f969b546f25, 0x6f8751f19a1f2ebb},
		{0x3df45a00b2ffbeb2, 0x40d10e978d4fdf3a, 0x408f400000000000, 0x40684d8f6ee5019a, 66, 64, 0x3f71fbaf4605ff25, 0x38d7c169e0047126},
		{0x3e049393fff820f5, 0x40de705e353f7cf2, 0x409ea00000000000, 0x40778c55678753e5, 130, 128, 0x8935dd2422f6eb25, 0xba5a33eb0025f8c2},
		{0x3e0d768e99198fbf, 0x40e34f5c28f5c291, 0x40a9500000000000, 0x407b04c36810d221, 226, 224, 0x310e42af98fb7125, 0x50919bd5c3250a0f},
		{0x3e1ea71f9b83a74d, 0x40f25bc8b4395803, 0x40b9280000000000, 0x408c0685591c571a, 450, 448, 0xdaae756b97d6bf25, 0xfb75be87f40e7804},
		{0x3e25ef416eded57b, 0x40f50b2b020c49ce, 0x40c6940000000000, 0x408c555510f23a8f, 834, 832, 0x47b5eeb1c24f5b25, 0x466e5f564045b85f},
		{0x3e36c42d614b8ae7, 0x4104a453f7ced92a, 0x40d68a0000000000, 0x409e3af3a9911707, 1666, 1664, 0x3accd01c5be01425, 0x33ccbf5dfe30c3c9},
		{0x3e4234a8184d2b16, 0x41076adb22d0e5a6, 0x40e5450000000000, 0x40a012eecb0bbb45, 3202, 3200, 0x21b84c137ccdb625, 0xd02fc79e70137bed},
		{0x3e425f26338abc6e, 0x40fbeed10624dd14, 0x40d4a50000000000, 0x40afc16b19be1559, 6276, 6274, 0x217a8ebb0efc9725, 0xa5e0d754bbe56c60},
	}},
	"block-chessboard/6": {par: []int{1, 1, 1, 1, 1, 2, 2}, cts: 0x3f971341fc23d26b, cWire: 0x405118ec95bff044, cbb: 0x4013656c6b632567, wl: 0x407ac00000000000, area: 0x406fdc9c4da9003f, viaCuts: 104, cgIters: 0, bits: []goldenBit{
		{0x3d7673009e0cec0e, 0x40604a3d70a3d70a, 0x4054000000000000, 0x3ff35604189374bb, 6, 4, 0xa8c7f832281a39c5, 0xac309ecd5d3fb812},
		{0x3d80a3354b83a4df, 0x406abe76c8b4395a, 0x4054000000000000, 0x4001288ce703afb8, 6, 4, 0xa8c7f832281a39c5, 0x475e63b78507ccc},
		{0x3d86777e869dba18, 0x4079d0624dd2f1a9, 0x4069000000000000, 0x4010d076db28b022, 12, 10, 0x692558b056101a44, 0x7de471aaadc0bda9},
		{0x3d96071989a03b37, 0x408e71a9fbe76c89, 0x4076800000000000, 0x4024273faa39facc, 22, 20, 0x64dbcbc3ab5bf1a5, 0x4f286d52d69cca5a},
		{0x3da23648bd1ee0a6, 0x4094bf4bc6a7ef9e, 0x4081800000000000, 0x4029f9459beb836e, 36, 34, 0xb0099f969b546f25, 0xa60da8d08f8b0279},
		{0x3dab7c3ad626fe51, 0x40858ae147ae147a, 0x405b800000000000, 0x403928d7fafe387e, 38, 36, 0x3f71fbaf4605ff25, 0x8c53b41ef5524eb1},
		{0x3db24d2165c77097, 0x407da2d0e5604188, 0x4051800000000000, 0x403175633e93b986, 46, 44, 0x8935dd2422f6eb25, 0x44190adab5b2f710},
	}},
	"block-chessboard/8": {par: []int{1, 1, 1, 1, 1, 1, 1, 2, 2}, cts: 0x3fb7402305be85e7, cWire: 0x407485b280f12c25, cbb: 0x40416db29eed92fb, wl: 0x409f2d374bc6a7fb, area: 0x409013458cd20afb, viaCuts: 291, cgIters: 0, bits: []goldenBit{
		{0x3d85ea90610261b3, 0x40720c8b43958106, 0x4054000000000000, 0x4007258f7121ab4a, 6, 4, 0xa8c7f832281a39c5, 0x3245bddeb7e0e862},
		{0x3d8d1fbfba82ec62, 0x40776353f7ced916, 0x4054000000000000, 0x40102ef7abe53d4d, 6, 4, 0xa8c7f832281a39c5, 0xd6caac26c31f1076},
		{0x3d91ed3161fe9834, 0x4086c76c8b439581, 0x4069000000000000, 0x401f367146ac156c, 12, 10, 0x692558b056101a44, 0x232e76e4610aa40},
		{0x3da04852f2755dad, 0x409936c8b4395812, 0x4076800000000000, 0x4032103560db2407, 22, 20, 0x64dbcbc3ab5bf1a5, 0xd87acce58d7a61be},
		{0x3daa48b6f50888bf, 0x40a0c7126e978d51, 0x4081800000000000, 0x403787aa538b83db, 36, 34, 0xb0099f969b546f25, 0xf49e2aaddac336e9},
		{0x3dc7b0f775b758c7, 0x40aa516872b020c5, 0x4084000000000000, 0x40412e05273f9854, 48, 46, 0x3f71fbaf4605ff25, 0xe4d0d04822ae268e},
		{0x3dd52588e69023da, 0x40b8932f1a9fbe7a, 0x4093600000000000, 0x40500d8c3589116d, 94, 92, 0x8935dd2422f6eb25, 0xb7ccaf04340047c},
		{0x3dd456dad6322772, 0x40af83ae147ae14b, 0x4078600000000000, 0x4062719227ebdab9, 142, 140, 0x310e42af98fb7125, 0x980daad74e466d24},
		{0x3de273d80ae4abcc, 0x409a2ed916872b04, 0x4061800000000000, 0x404e60ea84de3525, 156, 154, 0xdaae756b97d6bf25, 0x3e04ab564fe075b8},
	}},
	"block-chessboard/10": {par: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, cts: 0x3fd733a8a3f8982a, cWire: 0x4095168811b1d927, cbb: 0x4070890f4db83839, wl: 0x40c25725e353f7cb, area: 0x40afbcf80dc33721, viaCuts: 566, cgIters: 0, bits: []goldenBit{
		{0x3d99d396be3f14ee, 0x4082df5c28f5c290, 0x4054000000000000, 0x401b0b344ad1fcff, 6, 4, 0xa8c7f832281a39c5, 0x3a3db200a8400ad5},
		{0x3d9e6597fb6c6964, 0x40855fbe76c8b43a, 0x4054000000000000, 0x401ece384e6cbc32, 6, 4, 0xa8c7f832281a39c5, 0xe5625b24e0a36298},
		{0x3da186d739f1d869, 0x409519fbe76c8b41, 0x4069000000000000, 0x402dfb726b9efc1e, 12, 10, 0x692558b056101a44, 0x94f22045055ca410},
		{0x3dac669b3a4aae41, 0x40a6600000000001, 0x4076800000000000, 0x4040e5b1e5792467, 22, 20, 0x64dbcbc3ab5bf1a5, 0x9c43676031438857},
		{0x3db606b27469d884, 0x40ad1a04189374bf, 0x4081800000000000, 0x404667ca0b516cd9, 36, 34, 0xb0099f969b546f25, 0xe9dfba9c1c32aa33},
		{0x3dda95b619e50e4c, 0x40b90926e978d4fe, 0x4085400000000000, 0x4051ac0f29ed9f8e, 50, 48, 0x3f71fbaf4605ff25, 0x586520661c943e3f},
		{0x3dea1532fa3caccd, 0x40c570020c49ba5e, 0x4092c00000000000, 0x405dcbc67bea708c, 92, 90, 0x8935dd2422f6eb25, 0xb53576bfbeb7b08a},
		{0x3df74c7c5dea2847, 0x40d3c2d0e560418a, 0x40a1800000000000, 0x406b99ba641eb66d, 176, 174, 0x310e42af98fb7125, 0x9959004d5ac2d06f},
		{0x3e0455aedb0d8656, 0x40dcc50a3d70a3db, 0x40abd00000000000, 0x4074037c02afdda4, 306, 304, 0xdaae756b97d6bf25, 0xc24f94476aaa24ea},
		{0x3e117c3718272bc4, 0x40e2e73e76c8b432, 0x40b3b00000000000, 0x4078c7311c2588dc, 508, 506, 0x47b5eeb1c24f5b25, 0x91ae55fe2198c0a6},
		{0x3e11ce5ba785382d, 0x40c40e189374bc6a, 0x4080e00000000000, 0x4077acbf1649924c, 620, 618, 0x3accd01c5be01425, 0xa90605e6def4c},
	}},
	"block-chessboard/12": {par: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2}, cts: 0x3ff72cd11962a781, cWire: 0x40c10e6956c0d6f6, cbb: 0x40980e1a7fc10da5, wl: 0x40e66b8d4fdf3b78, area: 0x40d0c4855da27283, viaCuts: 3368, cgIters: 0, bits: []goldenBit{
		{0x3db11fd997e0cccd, 0x409324ed916872af, 0x4054000000000000, 0x402b22abc249740f, 6, 4, 0xa8c7f832281a39c5, 0xef975fbe7ad29418},
		{0x3db3396d1a8b41ac, 0x40947a9fbe76c8b4, 0x4054000000000000, 0x402dbe0ded288c72, 6, 4, 0xa8c7f832281a39c5, 0x9b529591cd2d76bd},
		{0x3db4fc35bf0768f4, 0x40a4475c28f5c28f, 0x4069000000000000, 0x403d5b78010a3262, 12, 10, 0x692558b056101a44, 0x143417ccb27b9403},
		{0x3dbe8fcd650dcb00, 0x40b4ed70a3d70a3d, 0x4076800000000000, 0x4050452aac7bf466, 22, 20, 0x64dbcbc3ab5bf1a5, 0xeccdd297a00d525b},
		{0x3dc5e74375c6e862, 0x40bacc7ef9db22ce, 0x4081800000000000, 0x4055469db19a7b55, 36, 34, 0xb0099f969b546f25, 0x5d2631779c8dce8b},
		{0x3df09ed5a101cc9b, 0x40c84a5604189373, 0x4085400000000000, 0x4061c1457af38fc4, 50, 48, 0x3f71fbaf4605ff25, 0xf8d1928c5a0a8a6},
		{0x3e01288a23edbcd3, 0x40d66f604189374f, 0x4094a00000000000, 0x406f13fe31f95f5e, 98, 96, 0x8935dd2422f6eb25, 0xe0d625ec3651782},
		{0x3e11b5211836e5af, 0x40e583fdf3b6459e, 0x40a4500000000000, 0x407ef61eb1f48f3b, 194, 192, 0x310e42af98fb7125, 0x91a95d37e309b325},
		{0x3e1fd55a3fa4f42c, 0x40f189c189374bcd, 0x40b1300000000000, 0x4089cabaf7c5d582, 348, 346, 0xdaae756b97d6bf25, 0xa1e5fa0f2f92255e},
		{0x3e2c0ecacad439de, 0x40fcd54083126e9a, 0x40bd380000000000, 0x40950b9265f86a8d, 630, 628, 0x47b5eeb1c24f5b25, 0x89356af7627d8067},
		{0x3e36403b9994ac66, 0x4101bf0851eb8517, 0x40c7200000000000, 0x4098fc22721fec8f, 1104, 1102, 0x3accd01c5be01425, 0x756c71ee2c797a8a},
		{0x3e360cf4d361b785, 0x40f47ba7ef9db23d, 0x40b1bc0000000000, 0x40a890b7efeeddb8, 1932, 1930, 0x21b84c137ccdb625, 0x3a13d95626386658},
		{0x3e4087afa7e88061, 0x40ee4dc147ae1484, 0x409fb80000000000, 0x40a1ad638347c93f, 2454, 2452, 0x217a8ebb0efc9725, 0x3fb9524f2d81d47b},
	}},
}
