package variation

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
	"ccdac/internal/extract"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// goldenSweep pins one routed layout's structured analysis: the
// math.Float64bits of every upper-triangle Cov entry (row-major, the
// matrix must be exactly symmetric) from an 8-step SweepThetaContext,
// and an FNV-1a digest of a 20-sample Shared Monte-Carlo block.
type goldenSweep struct {
	cov []uint64
	mc  uint64
}

func (g goldenSweep) String() string {
	var b strings.Builder
	b.WriteString("{cov: []uint64{")
	for i, v := range g.cov {
		if i%4 == 0 {
			b.WriteString("\n\t\t")
		} else {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%#x,", v)
	}
	fmt.Fprintf(&b, "\n\t}, mc: %#x},", g.mc)
	return b.String()
}

// routedPromoted runs the flow's route→extract loop at MaxParallel 2
// and returns the final layout.
func routedPromoted(ctx context.Context, t *testing.T, m *ccmatrix.Matrix, tch *tech.Technology) *route.Layout {
	t.Helper()
	wires := make([]int, m.Bits+1)
	for i := range wires {
		wires[i] = 1
	}
	for iter := 0; ; iter++ {
		l, err := route.RouteContext(ctx, m, tch, wires)
		if err != nil {
			t.Fatal(err)
		}
		s, err := extract.ExtractContext(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		crit := s.CriticalBit()
		if wires[crit] >= 2 || iter > m.Bits+1 {
			return l
		}
		wires[crit] = 2
	}
}

func goldenSweepOf(ctx context.Context, t *testing.T, m *ccmatrix.Matrix, l *route.Layout, tch *tech.Technology) goldenSweep {
	t.Helper()
	as, err := SweepThetaContext(ctx, m, l.CellCenter, tch, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(as[0].Warnings) != 0 {
		t.Fatalf("structured covariance degraded: %v", as[0].Warnings)
	}
	var g goldenSweep
	cov := as[0].Cov
	n := m.Bits + 1
	for j := 0; j < n; j++ {
		for k := j; k < n; k++ {
			u, l := math.Float64bits(cov.At(j, k)), math.Float64bits(cov.At(k, j))
			if u != l {
				t.Fatalf("Cov(%d,%d) = %#x but Cov(%d,%d) = %#x", j, k, u, k, j, l)
			}
			g.cov = append(g.cov, u)
		}
	}
	sh, err := NewSharedContext(ctx, m, l.CellCenter, tch)
	if err != nil {
		t.Fatal(err)
	}
	shifts, err := sh.MonteCarloRangeContext(ctx, sh.Analysis(math.Pi/4), 0, 20, 29)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range shifts {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	g.mc = h.Sum64()
	return g
}

// TestGoldenRoutedSweep requires the separable-tier covariance of
// routed MaxParallel-2 layouts, and the spectral Monte-Carlo samples
// drawn over them, to match values captured before the row-spectral
// build and contraction were reworked, bit for bit, at 1 and 2
// workers. Memo and cache entries, job checkpoints and the
// benchmark's reference metrics all assume the structured analysis
// never moves.
func TestGoldenRoutedSweep(t *testing.T) {
	tch := tech.FinFET12()
	for _, style := range []string{"spiral", "chessboard", "block-chessboard"} {
		for _, bits := range []int{8, 10, 12} {
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
				l := routedPromoted(par.WithWorkers(context.Background(), 2), t, m, tch)
				for _, workers := range []int{1, 2} {
					got := goldenSweepOf(par.WithWorkers(context.Background(), workers), t, m, l, tch)
					if want := goldenRoutedSweep[key]; !reflect.DeepEqual(got, want) {
						t.Errorf("workers=%d: analysis differs from the golden\ngot  %q: %s", workers, key, got)
					}
				}
			})
		}
	}
}

// goldenRoutedSweep holds the captured analyses, keyed style/bits.
var goldenRoutedSweep = map[string]goldenSweep{
	"spiral/8": {cov: []uint64{
		0x3f37acc4ef88b974, 0x3f37ab1f0d1ab014, 0x3f47ab9aca375295, 0x3f57aac5431ec5a4,
		0x3f67aa8c396382ed, 0x3f77a96c9a672f93, 0x3f87a82040f05254, 0x3f97a6146c6acd3b,
		0x3fa7a3adb9dfa821, 0x3f37acc4ef88b974, 0x3f47ab9aca375295, 0x3f57aac4d12752a2,
		0x3f67aa8baadf1e8f, 0x3f77a96c43d10f39, 0x3f87a81f54f90e27, 0x3f97a61397b68449,
		0x3fa7a3ac8099cce8, 0x3f57abf1fe51b4c3, 0x3f67aac50a230c26, 0x3f77aa8bf22150be,
		0x3f87a966f3520b6d, 0x3f97a82288d9ba37, 0x3fa7a612bc854b63, 0x3fb7a3adc0026935,
		0x3f77aa9e2cbf3a26, 0x3f87aa0e8b6a809e, 0x3f97a93247c3ef4a, 0x3fa7a7f60a2f5930,
		0x3fb7a5fb13e0ee34, 0x3fc7a3962f809860, 0x3f97aa15aa858ae8, 0x3fa7a914cc0325e5,
		0x3fb7a7e7955eeabd, 0x3fc7a5e9dba8e388, 0x3fd7a390e164096a, 0x3fb7a896ac288a22,
		0x3fc7a782424feb24, 0x3fd7a5b0ed5374fa, 0x3fe7a35f3ab56629, 0x3fd7a6dda384feaa,
		0x3fe7a53dd2bed9a3, 0x3ff7a312f987c197, 0x3ff7a43d4861a667, 0x4007a252f4392487,
		0x4017a1107f2c64d6,
	}, mc: 0x252c9a73063c6888},
	"spiral/10": {cov: []uint64{
		0x3f37acc4ef88b97a, 0x3f37ab1f0d1ab015, 0x3f47ab9aca375291, 0x3f57aac5431ec5a8,
		0x3f67aa8c396382ed, 0x3f77a96c9a672f94, 0x3f87a82040f05259, 0x3f97a61781698326,
		0x3fa7a3b2aa0f4a20, 0x3fb79fe44c82c903, 0x3fc79aae1e8ba0f7, 0x3f37acc4ef88b97a,
		0x3f47ab9aca375291, 0x3f57aac4d12752a0, 0x3f67aa8baadf1e8b, 0x3f77a96c43d10f31,
		0x3f87a81f54f90e26, 0x3f97a616c892e491, 0x3fa7a3b1a6db41a1, 0x3fb79fe32a7c52c4,
		0x3fc79aad12f12ccd, 0x3f57abf1fe51b4c4, 0x3f67aac50a230c24, 0x3f77aa8bf22150c1,
		0x3f87a966f3520b6d, 0x3f97a82288d9ba3b, 0x3fa7a615df34a7d1, 0x3fb7a3b2cb5a0be6,
		0x3fc79fe403a9af08, 0x3fd79aad74a95648, 0x3f77aa9e2cbf3a22, 0x3f87aa0e8b6a809d,
		0x3f97a93247c3ef4c, 0x3fa7a7f60a2f592c, 0x3fb7a5fe27a2fa04, 0x3fc7a39b2b6c3342,
		0x3fd79fd611b50bfc, 0x3fe79aa27fe5c0ea, 0x3f97aa15aa858ae5, 0x3fa7a914cc0325db,
		0x3fb7a7e7955eeab8, 0x3fc7a5ecec6ed8e5, 0x3fd7a395dee172c8, 0x3fe79fcf162d15cf,
		0x3ff79a9f37501c47, 0x3fb7a896ac288a1a, 0x3fc7a782424feb22, 0x3fd7a5b3de040930,
		0x3fe7a3641bdb20b4, 0x3ff79faf02af050b, 0x40079a884dfa6b41, 0x3fd7a6dda384fea5,
		0x3fe7a5408bea9183, 0x3ff7a317b28d2522, 0x40079f79d9780042, 0x40179a61ba8ae57f,
		0x3ff7a44128adaf95, 0x4007a25891bdd24c, 0x40179eff2fd141fc, 0x40279a0b111c11a5,
		0x4017a1173d35f761, 0x40279e2b3d5426a2, 0x4037997b4d45c401, 0x40379c38f75738aa,
		0x40479831777194f0, 0x4057957a19c71157,
	}, mc: 0x4a9884171a5d6cbc},
	"spiral/12": {cov: []uint64{
		0x3f37acc4ef88b977, 0x3f37ab1f0d1ab00c, 0x3f47ab9aca375292, 0x3f57aac5431ec5a6,
		0x3f67aa8c396382ea, 0x3f77a96c9a672f9e, 0x3f87a82040f0525b, 0x3f97a61781698329,
		0x3fa7a3b2aa0f4a30, 0x3fb79fe7a0077a02, 0x3fc79ab37da0e3bc, 0x3fd7933a80185a6d,
		0x3fe788f62a74e06f, 0x3f37acc4ef88b977, 0x3f47ab9aca375292, 0x3f57aac4d12752a6,
		0x3f67aa8baadf1e8f, 0x3f77a96c43d10f46, 0x3f87a81f54f90e2f, 0x3f97a616c892e48b,
		0x3fa7a3b1a6db41a0, 0x3fb79fe694299011, 0x3fc79ab28d7ca44e, 0x3fd793399fbc7295,
		0x3fe788f54fe81f50, 0x3f57abf1fe51b4c7, 0x3f67aac50a230c22, 0x3f77aa8bf22150be,
		0x3f87a966f3520b75, 0x3f97a82288d9ba3c, 0x3fa7a615df34a7cb, 0x3fb7a3b2cb5a0be9,
		0x3fc79fe762846a3a, 0x3fd79ab2e158d172, 0x3fe7933a0093be5b, 0x3ff788f5c4d9d3fb,
		0x3f77aa9e2cbf3a23, 0x3f87aa0e8b6a809d, 0x3f97a93247c3ef51, 0x3fa7a7f60a2f592c,
		0x3fb7a5fe27a2f9fc, 0x3fc7a39b2b6c333f, 0x3fd79fd96c671402, 0x3fe79aa7e7e511af,
		0x3ff79332e17c6507, 0x400788f04b7aef21, 0x3f97aa15aa858aec, 0x3fa7a914cc0325e4,
		0x3fb7a7e7955eeabd, 0x3fc7a5ecec6ed8dd, 0x3fd7a395dee172d2, 0x3fe79fd26fc8dd0b,
		0x3ff79aa4a0177e72, 0x4007932fb61ad32e, 0x401788ee90047925, 0x3fb7a896ac288a23,
		0x3fc7a782424feb26, 0x3fd7a5b3de040936, 0x3fe7a3641bdb20ba, 0x3ff79fb2534697e7,
		0x40079a8daef81807, 0x4017932001fcc6d1, 0x402788e2e8129162, 0x3fd7a6dda384fea7,
		0x3fe7a5408bea9183, 0x3ff7a317b28d251b, 0x40079f7d1d70ec76, 0x40179a67101bfa42,
		0x40279304f5679e71, 0x403788d00a101881, 0x3ff7a44128adaf94, 0x4007a25891bdd24a,
		0x40179f0250583c2d, 0x40279a10498a416c, 0x403792c9c39f4599, 0x404788a49bcedffe,
		0x4017a1173d35f753, 0x40279e2e269a4d22, 0x403799805d500cc6, 0x4047926441c4f725,
		0x4057885ed7274b60, 0x40379c3d546dc427, 0x404798377c34d3a3, 0x40579187fb3097ec,
		0x406787c2e9294e3f, 0x405795812fe7a724, 0x40678fc56b697194, 0x4077868f25fa33a1,
		0x40778be38b0d4c7d, 0x408784052c00fca2, 0x40977ea837ac3543,
	}, mc: 0xb1d1750f0d0b2b6b},
	"chessboard/8": {cov: []uint64{
		0x3f37acc4ef88b974, 0x3f379e8d661f1aa6, 0x3f47a2c3d1d9a6cb, 0x3f579dbe1f66b6f2,
		0x3f67a06fd77a2c76, 0x3f779d852622d597, 0x3f879f007406a600, 0x3f979d74e755e2c0,
		0x3fa79e3b62dcd9b5, 0x3f37acc4ef88b974, 0x3f47a2c3d1d9a6cb, 0x3f57a5a8194f90e2,
		0x3f67a4a809f86a4a, 0x3f77a54030bd2232, 0x3f87a4fd50ada222, 0x3f97a5220b2bd0d0,
		0x3fa7a510c7ae4b30, 0x3f57a5a92ad3ea11, 0x3f67a14af065db97, 0x3f77a28bf0b94b5e,
		0x3f87a0ff7e4114c4, 0x3f97a1cc67850b29, 0x3fa7a0e9fb3cd330, 0x3fb7a15c02a4a8cf,
		0x3f77a4367e56c86d, 0x3f87a28bf0b94b5e, 0x3f97a31a152e1dc1, 0x3fa7a2de31a33318,
		0x3fb7a2ff54bbdad9, 0x3fc7a2efd77ad6fa, 0x3f97a2dac25ba41a, 0x3fa7a21f59618830,
		0x3fb7a261eb496557, 0x3fc7a206f7bdcc8a, 0x3fd7a235618f5808, 0x3fb7a2b3598a77ba,
		0x3fc7a261eb496558, 0x3fd7a2819d8759c0, 0x3fe7a272f94bb9ed, 0x3fd7a26ae85e72aa,
		0x3fe7a2456d93b681, 0x3ff7a254f177b18b, 0x3ff7a26669d3ec02, 0x4007a254f177b18b,
		0x4017a25603f3812b,
	}, mc: 0xbc08265a6a9340e8},
	"chessboard/10": {cov: []uint64{
		0x3f37acc4ef88b97a, 0x3f37902ddb7e867e, 0x3f4798a7b4061eb7, 0x3f578e902a2724bc,
		0x3f6793fa0cc6bbdd, 0x3f778e1a8344a42a, 0x3f879116169d3a9b, 0x3f978df9e0633643,
		0x3fa78f8968cd4929, 0x3fb78df18c8f1e91, 0x3fc78ebda76748bb, 0x3f37acc4ef88b97a,
		0x3f4798a7b4061eb7, 0x3f579e751212560b, 0x3f679c73eb76fd7c, 0x3f779da524f1f485,
		0x3f879d1ef77a9e75, 0x3f979d6874049f30, 0x3fa79d45ebf53941, 0x3fb79d585c1dd9b2,
		0x3fc79d4f67efea07, 0x3f579e7965839ff9, 0x3f6795b19d072416, 0x3f779836fc1edcab,
		0x3f8795185eefc1d6, 0x3f9796b51fcbe911, 0x3fa794ed17922c1a, 0x3fb795d2c12d1703,
		0x3fc794e1dc8988ba, 0x3fd7955a824fbe03, 0x3f779b908cc4df5b, 0x3f879836fc1edca9,
		0x3f97995447e79981, 0x3fa798dc1ed6677f, 0x3fb7991e6c9b39fd, 0x3fc798ff70988f6e,
		0x3fd799100ec6935c, 0x3fe799080372dd56, 0x3f9798d5552b6808, 0x3fa7975ba03231ef,
		0x3fb797e1f9212926, 0x3fc7972a8e4fa3fe, 0x3fd797882661fcd6, 0x3fe7971da15b8c44,
		0x3ff797531eca5d5f, 0x3fb7988628a5225a, 0x3fc797e1f9212926, 0x3fd79821cfc4293d,
		0x3fe7980451132095, 0x3ff798140b68e722, 0x4007980c714b0af6, 0x3fd797f4088cc1bc,
		0x3fe797a87a3e5820, 0x3ff797c7c6ee06f2, 0x4007979b1d27f9e0, 0x401797b1b0e96525,
		0x3ff797eb00d6f576, 0x400797c7c6ee06f2, 0x401797d75fed8f3d, 0x402797cfdb4adb5a,
		0x401797c9ee448254, 0x402797b962366574, 0x403797c0de395276, 0x403797c95c93cc6b,
		0x404797c11f2ab57b, 0x405797c141f831c0,
	}, mc: 0x16fccf1c930f2da6},
	"chessboard/12": {cov: []uint64{
		0x3f37acc4ef88b977, 0x3f377388d5f4d848, 0x3f47847c99caa0bd, 0x3f577054dced289b,
		0x3f677b25552c11ba, 0x3f776f67772932a4, 0x3f87755de80e9ed0, 0x3f976f26747ef528,
		0x3fa772450bd0bad2, 0x3fb76f15b81baa2b, 0x3fc770adbc5ab7e2, 0x3fd76f118759ff3c,
		0x3fe76fdfacf7b715, 0x3f37acc4ef88b977, 0x3f47847c99caa0bd, 0x3f57901581f9b98e,
		0x3f678c157cda991b, 0x3f778e7734069f58, 0x3f878d6b3ee280e0, 0x3f978dfdd5c59b14,
		0x3fa78db8f95d79e2, 0x3fb78ddd5a81afb5, 0x3fc78dcbb25b3121, 0x3fd78dd511f4bdd6,
		0x3fe78dd072d4463b, 0x3f579026e2bec8d5, 0x3f677e928d1434e9, 0x3f77839d69035561,
		0x3f877d5f58b457f4, 0x3f978099579b3009, 0x3fa77d08f13a7df6, 0x3fb77ed4725bdc60,
		0x3fc77cf250d2a7d1, 0x3fd77de3c95bf0b7, 0x3fe77cec9aab329a, 0x3ff77d683ec7cab5,
		0x3f778a51be44b4cb, 0x3f87839d69035560, 0x3f9785d75e9f9bd9, 0x3fa784e77cccce59,
		0x3fb7856bb6879fdd, 0x3fc7852df19b5a07, 0x3fd7854eb959ce5b, 0x3fe7853edda1f9ce,
		0x3ff785474e37b4d4, 0x400785432695109b, 0x3f9784dace4443de, 0x3fa781e6211b4652,
		0x3fb782f3392b5723, 0x3fc7818417838957, 0x3fd7823f703020a2, 0x3fe7816a07049f64,
		0x3ff781d5322934e7, 0x400781636616c482, 0x4017819c5aae3c01, 0x3fb7843c1ba3cca2,
		0x3fc782f3392b5723, 0x3fd78372eff9688d, 0x3fe78337f0aa20a3, 0x3ff783572dc7fe73,
		0x4007834815f22b1c, 0x401783501125f40c, 0x4027834c242d7b6b, 0x3fd783176cd16f71,
		0x3fe782801f67f681, 0x3ff782bec9e3b324, 0x400782652ce252ef, 0x4017829279cf6f85,
		0x4027825e4bd3ff75, 0x40378278726347a2, 0x3ff7830552fe6349, 0x400782bec9e3b325,
		0x401782ddb72d577b, 0x402782ced03e4751, 0x403782d6b2f91b63, 0x404782d2d226032d,
		0x401782c31ade44fe, 0x402782a1b9ea4fa2, 0x403782b0d563c398, 0x4047829ac7047f01,
		0x405782a5de3f4eb5, 0x403782c17482e090, 0x404782b11669247c, 0x405782b8f463f962,
		0x406782b516b47c90, 0x405782b17cbe8290, 0x406782a9e224512e, 0x407782ad7d7a4308,
		0x407782b1dab79172, 0x408782adce2a7b4d, 0x409782adb678ca9f,
	}, mc: 0x4117a1d0a253218b},
	"block-chessboard/8": {cov: []uint64{
		0x3f37acc4ef88b974, 0x3f37a92a09b66d6c, 0x3f47aa3c69aa7570, 0x3f57a8f5b267dfaf,
		0x3f67a9a4dd64cf4b, 0x3f77a3ffb561b903, 0x3f87a48e3a130b8c, 0x3f97a4b31ab226d4,
		0x3fa7a4749e12a022, 0x3f37acc4ef88b974, 0x3f47aa3c69aa7570, 0x3f57aaf76b0d2baf,
		0x3f67aab6c755e694, 0x3f77a44ae267bcdf, 0x3f87a4e0b370c4a2, 0x3f97a4e62b3ed69e,
		0x3fa7a4ab6a9955ca, 0x3f57aaf77c9f9372, 0x3f67a9dc5a4ab637, 0x3f77aa2dd25d5af1,
		0x3f87a4381f515348, 0x3f97a4c6109b2aff, 0x3fa7a4c618116948, 0x3fb7a48de0737852,
		0x3f77aa99f325046e, 0x3f87aa2dd25d5af1, 0x3f97a42ee2087a80, 0x3fa7a4becb3ccecf,
		0x3fb7a4c96590fe7b, 0x3fc7a48ee38ef174, 0x3f97aa41b3d3d131, 0x3fa7a4338ca4a7ae,
		0x3fb7a4c20fdbb497, 0x3fc7a4c7de96e2e3, 0x3fd7a48e424001be, 0x3fb7a1b758d0f102,
		0x3fc7a1bb954c1079, 0x3fd7a1d3d6453af1, 0x3fe7a1a2cc5d9141, 0x3fd7a23ed0e63adb,
		0x3fe7a23c8e8018f0, 0x3ff7a205d879a93d, 0x3ff7a2717df98187, 0x4007a230a89beddc,
		0x4017a20198fdef14,
	}, mc: 0xe2e135de1080cfa0},
	"block-chessboard/10": {cov: []uint64{
		0x3f37acc4ef88b97a, 0x3f37a91998499f68, 0x3f47aa31f4973d71, 0x3f57a8dd2584ff91,
		0x3f67a992d88d898f, 0x3f779fddc194ffb3, 0x3f879e296802b6ba, 0x3f979dc69c5913ca,
		0x3fa79d3aa09874b5, 0x3fb79cd9e552eb48, 0x3fc79cd25f37c712, 0x3f37acc4ef88b97a,
		0x3f47aa31f4973d71, 0x3f57aaef26876e8b, 0x3f67aaade1329151, 0x3f77a004a0a32c9d,
		0x3f879e4ec8ae60dc, 0x3f979dea237516ba, 0x3fa79d5e9363fde7, 0x3fb79cfa1b6a723b,
		0x3fc79cf1aa38bfbf, 0x3f57aaef43e92c6d, 0x3f67a9cb009b71ff, 0x3f77aa205ce00d72,
		0x3f879feda7339ccf, 0x3f979e3a8b9914df, 0x3fa79dd89bbcd91e, 0x3fb79d4e5e930926,
		0x3fc79ce9dce6409d, 0x3fd79ce201a92d98, 0x3f77aa909c4034ef, 0x3f87aa205ce00d71,
		0x3f979feee98253b0, 0x3fa79e3b7de350d3, 0x3fb79dd8222d7268, 0x3fc79d4cfc3bae4f,
		0x3fd79ce976778864, 0x3fe79ce18a00dbcc, 0x3f97aa3497c884ba, 0x3fa79fee22905e76,
		0x3fb79e3a9a079f5d, 0x3fc79dd85e578a9d, 0x3fd79d4d930c006a, 0x3fe79ce9aaa79d0f,
		0x3ff79ce1c82e9796, 0x3fb79b76019cd50e, 0x3fc79a04c1a4b403, 0x3fd799c2fa1d1b83,
		0x3fe79958dd486cd1, 0x3ff79911221714bf, 0x4007990cd95c8b88, 0x3fd7994cd68d38a3,
		0x3fe798de38e75f61, 0x3ff79872517b0343, 0x4007982be501639a, 0x4017982545065340,
		0x3ff798bf8e065dc3, 0x400798508722cadb, 0x401798087d5de82d, 0x402798025c680c2b,
		0x4017980916e90e24, 0x402797becfffa783, 0x403797b751eca6d7, 0x403797806165f16b,
		0x404797772ae3489d, 0x40579772bcbe6b31,
	}, mc: 0xdd4848f125ab2a3f},
	"block-chessboard/12": {cov: []uint64{
		0x3f37acc4ef88b977, 0x3f37a8e740ff6348, 0x3f47aa12959509b8, 0x3f57a8b1aa2ceafc,
		0x3f67a96e5847b032, 0x3f7790ca66e1a6ac, 0x3f878e10d1a58c22, 0x3f978c7bffef30a1,
		0x3fa78d3b5670db6e, 0x3fb78c826a2f3548, 0x3fc78caf495add3a, 0x3fd78c959df02d02,
		0x3fe78c8eda7187b9, 0x3f37acc4ef88b977, 0x3f47aa12959509b8, 0x3f57aad6040ef18e,
		0x3f67aa92f8778978, 0x3f7790da78d20dee, 0x3f878e1ff526b827, 0x3f978c8dcb24ee94,
		0x3fa78d50d7314058, 0x3fb78c96aa03015e, 0x3fc78cc1c16a9d11, 0x3fd78ca788fc7bfa,
		0x3fe78ca16a0f08f2, 0x3f57aad618440e58, 0x3f67a9a9019af6f4, 0x3f77aa00a85f9cd0,
		0x3f8790be88952c60, 0x3f978e1366a1ecf8, 0x3fa78c84575098e1, 0x3fb78d47490d9293,
		0x3fc78c8d0b4721c9, 0x3fd78cb7f11eb2c7, 0x3fe78c9e75a4b7a9, 0x3ff78c987f8d82bb,
		0x3f77aa7456ec8c0a, 0x3f87aa00a85f9cd0, 0x3f9790c87b182204, 0x3fa78e15ebb4e539,
		0x3fb78c84b4609182, 0x3fc78d46bb14b35f, 0x3fd78c8cd81f3c8a, 0x3fe78cb84906c61c,
		0x3ff78c9e9195f68c, 0x40078c985cb7ecf9, 0x3f97aa1561a47f54, 0x3fa790c4185e9a68,
		0x3fb78e14bcaefaa0, 0x3fc78c847e87e243, 0x3fd78d46e157db9f, 0x3fe78c8cf1ab63f3,
		0x3ff78cb817baff1f, 0x40078c9e86618868, 0x40178c986bc820b1, 0x3fb786fe190aaae5,
		0x3fc784ebd402f577, 0x3fd7836567254b31, 0x3fe7838c217d2319, 0x3ff782f7d2cf2b95,
		0x4007831dda6a33ee, 0x401783126f2a1d6f, 0x4027831077a4639a, 0x3fd783dc84170ded,
		0x3fe7826d4c6daa95, 0x3ff7829a5ba22f9c, 0x4007820246d3833d, 0x401782281cfb5052,
		0x4027821f954fd442, 0x4037821d784c0741, 0x3ff781b52b77fff2, 0x400781df5665ca9f,
		0x401781290a8da6b8, 0x4027814b14d3d4d4, 0x403781412cb7662f, 0x4047813ec1bd8fa0,
		0x4017825dddac4e04, 0x4027819d244c926c, 0x403781bf57bf59bd, 0x404781b3f9ef3f94,
		0x405781b170d44aab, 0x4037810101c93ec6, 0x404781211e5c5a56, 0x405781153419ce37,
		0x4067811276e5f3c1, 0x4057814c22747131, 0x4067813fe8332cfe, 0x4077813c9bcbd9d7,
		0x407781370a94c4b2, 0x4087813386a23aab, 0x40978131392bcb49,
	}, mc: 0x8e1210ddd9c67f2c},
}

// TestSeparableTierLeavesRhoMemo requires the separable tier — a
// routed SweepThetaContext and a NewSharedContext whose spectral
// sampler is set up — to evaluate each distinct kernel argument once,
// through no memo: the trace counts exactly the embedding's
// evaluations and no memo hits.
func TestSeparableTierLeavesRhoMemo(t *testing.T) {
	tch := tech.FinFET12()
	m, err := place.NewChessboard(8)
	if err != nil {
		t.Fatal(err)
	}
	l := routedPromoted(par.WithWorkers(context.Background(), 2), t, m, tch)
	ctx, tr := tracedCtx(t)
	ctx = par.WithWorkers(ctx, 2)
	as, err := SweepThetaContext(ctx, m, l.CellCenter, tch, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(as[0].Warnings) != 0 {
		t.Fatalf("structured covariance degraded: %v", as[0].Warnings)
	}
	sh, err := NewSharedContext(ctx, m, l.CellCenter, tch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.MonteCarloRangeContext(ctx, sh.Analysis(0.3), 0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if sh.mc == nil {
		t.Fatal("spectral sampler was not set up")
	}
	snap := tr.Registry().Snapshot()
	if got := snap.Counter("ccdac_numeric_fft_structured_total", obs.Labels{"path": "analyze"}); got != 2 {
		t.Errorf("structured analyze builds = %d, want 2", got)
	}
	g := gatherCells(m, l.CellCenter)
	lat := fitLattice(g.flat, g.rows, g.cols)
	if !lat.complete || lat.uniform {
		t.Fatal("routed layout does not fit a complete non-uniform lattice")
	}
	emb, err := mismatchSemiEmbedding(tch, lat.sg, 1)
	if err != nil {
		t.Fatal(err)
	}
	evals := emb.KernelEvals
	// Two covariance builds and one sampler set-up.
	if got := snap.Counter("ccdac_variation_rho_calls_total", nil); got != 3*evals {
		t.Errorf("rho calls counted %d, want %d (3 builds × %d evaluations)", got, 3*evals, evals)
	}
	if got := snap.Counter("ccdac_variation_rho_memo_hits_total", nil); got != 0 {
		t.Errorf("rho memo hits counted %d, want 0", got)
	}
}
