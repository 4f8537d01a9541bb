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
// drawn over them, to match values captured at sample stream 4 (one
// kernel row per distinct row of keys, class indicators transformed
// two per FFT), bit for bit, at 1 and 2 workers. Memo and cache
// entries, job checkpoints and the benchmark's reference metrics all
// assume the structured analysis moves only with the stream.
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
		0x3f37acc4ef88b975, 0x3f37ab1f0d1ab013, 0x3f47ab9aca375291, 0x3f57aac5431ec5a7,
		0x3f67aa8c396382ec, 0x3f77a96c9a672f92, 0x3f87a82040f05256, 0x3f97a6146c6acd3b,
		0x3fa7a3adb9dfa81e, 0x3f37acc4ef88b976, 0x3f47ab9aca375291, 0x3f57aac4d12752a4,
		0x3f67aa8baadf1e91, 0x3f77a96c43d10f3c, 0x3f87a81f54f90e26, 0x3f97a61397b6844b,
		0x3fa7a3ac8099cce5, 0x3f57abf1fe51b4c4, 0x3f67aac50a230c26, 0x3f77aa8bf22150be,
		0x3f87a966f3520b70, 0x3f97a82288d9ba39, 0x3fa7a612bc854b64, 0x3fb7a3adc0026931,
		0x3f77aa9e2cbf3a23, 0x3f87aa0e8b6a80a1, 0x3f97a93247c3ef4d, 0x3fa7a7f60a2f5932,
		0x3fb7a5fb13e0ee32, 0x3fc7a3962f809861, 0x3f97aa15aa858aed, 0x3fa7a914cc0325e1,
		0x3fb7a7e7955eeabb, 0x3fc7a5e9dba8e388, 0x3fd7a390e1640969, 0x3fb7a896ac288a20,
		0x3fc7a782424feb28, 0x3fd7a5b0ed5374fb, 0x3fe7a35f3ab56626, 0x3fd7a6dda384fea8,
		0x3fe7a53dd2bed9a5, 0x3ff7a312f987c194, 0x3ff7a43d4861a668, 0x4007a252f4392483,
		0x4017a1107f2c64d2,
	}, mc: 0x64389dccee7dc935},
	"spiral/10": {cov: []uint64{
		0x3f37acc4ef88b976, 0x3f37ab1f0d1ab012, 0x3f47ab9aca375290, 0x3f57aac5431ec5a7,
		0x3f67aa8c396382eb, 0x3f77a96c9a672f93, 0x3f87a82040f05255, 0x3f97a61781698326,
		0x3fa7a3b2aa0f4a26, 0x3fb79fe44c82c905, 0x3fc79aae1e8ba0f4, 0x3f37acc4ef88b976,
		0x3f47ab9aca375291, 0x3f57aac4d12752a3, 0x3f67aa8baadf1e90, 0x3f77a96c43d10f3b,
		0x3f87a81f54f90e26, 0x3f97a616c892e48e, 0x3fa7a3b1a6db419c, 0x3fb79fe32a7c52c6,
		0x3fc79aad12f12cc8, 0x3f57abf1fe51b4c4, 0x3f67aac50a230c25, 0x3f77aa8bf22150be,
		0x3f87a966f3520b71, 0x3f97a82288d9ba39, 0x3fa7a615df34a7ce, 0x3fb7a3b2cb5a0be6,
		0x3fc79fe403a9af0f, 0x3fd79aad74a9564a, 0x3f77aa9e2cbf3a23, 0x3f87aa0e8b6a80a1,
		0x3f97a93247c3ef4c, 0x3fa7a7f60a2f5931, 0x3fb7a5fe27a2fa03, 0x3fc7a39b2b6c3342,
		0x3fd79fd611b50bfb, 0x3fe79aa27fe5c0f0, 0x3f97aa15aa858aec, 0x3fa7a914cc0325e0,
		0x3fb7a7e7955eeaba, 0x3fc7a5ecec6ed8df, 0x3fd7a395dee172cb, 0x3fe79fcf162d15cb,
		0x3ff79a9f37501c45, 0x3fb7a896ac288a1f, 0x3fc7a782424feb26, 0x3fd7a5b3de040932,
		0x3fe7a3641bdb20b5, 0x3ff79faf02af050b, 0x40079a884dfa6b43, 0x3fd7a6dda384fea8,
		0x3fe7a5408bea9185, 0x3ff7a317b28d251e, 0x40079f79d9780040, 0x40179a61ba8ae57d,
		0x3ff7a44128adaf96, 0x4007a25891bdd24d, 0x40179eff2fd141f7, 0x40279a0b111c11a2,
		0x4017a1173d35f75a, 0x40279e2b3d5426a4, 0x4037997b4d45c400, 0x40379c38f75738a9,
		0x40479831777194ed, 0x4057957a19c71157,
	}, mc: 0x76a2b64eaed61568},
	"spiral/12": {cov: []uint64{
		0x3f37acc4ef88b975, 0x3f37ab1f0d1ab013, 0x3f47ab9aca375291, 0x3f57aac5431ec5a6,
		0x3f67aa8c396382ea, 0x3f77a96c9a672f93, 0x3f87a82040f05256, 0x3f97a61781698327,
		0x3fa7a3b2aa0f4a28, 0x3fb79fe7a0077a09, 0x3fc79ab37da0e3bd, 0x3fd7933a80185a67,
		0x3fe788f62a74e070, 0x3f37acc4ef88b975, 0x3f47ab9aca375291, 0x3f57aac4d12752a3,
		0x3f67aa8baadf1e91, 0x3f77a96c43d10f3b, 0x3f87a81f54f90e27, 0x3f97a616c892e48f,
		0x3fa7a3b1a6db419e, 0x3fb79fe694299012, 0x3fc79ab28d7ca44a, 0x3fd793399fbc7291,
		0x3fe788f54fe81f53, 0x3f57abf1fe51b4c5, 0x3f67aac50a230c24, 0x3f77aa8bf22150be,
		0x3f87a966f3520b71, 0x3f97a82288d9ba39, 0x3fa7a615df34a7ce, 0x3fb7a3b2cb5a0be8,
		0x3fc79fe762846a39, 0x3fd79ab2e158d16e, 0x3fe7933a0093be55, 0x3ff788f5c4d9d3f5,
		0x3f77aa9e2cbf3a23, 0x3f87aa0e8b6a80a1, 0x3f97a93247c3ef4d, 0x3fa7a7f60a2f5930,
		0x3fb7a5fe27a2fa02, 0x3fc7a39b2b6c3342, 0x3fd79fd96c671403, 0x3fe79aa7e7e511ae,
		0x3ff79332e17c650a, 0x400788f04b7aef26, 0x3f97aa15aa858aec, 0x3fa7a914cc0325e0,
		0x3fb7a7e7955eeaba, 0x3fc7a5ecec6ed8e0, 0x3fd7a395dee172cb, 0x3fe79fd26fc8dd08,
		0x3ff79aa4a0177e73, 0x4007932fb61ad332, 0x401788ee90047925, 0x3fb7a896ac288a21,
		0x3fc7a782424feb27, 0x3fd7a5b3de040933, 0x3fe7a3641bdb20b5, 0x3ff79fb2534697e4,
		0x40079a8daef81809, 0x4017932001fcc6ce, 0x402788e2e8129169, 0x3fd7a6dda384fea8,
		0x3fe7a5408bea9186, 0x3ff7a317b28d251e, 0x40079f7d1d70ec70, 0x40179a67101bfa44,
		0x40279304f5679e74, 0x403788d00a10188a, 0x3ff7a44128adaf96, 0x4007a25891bdd24d,
		0x40179f0250583c2d, 0x40279a10498a4161, 0x403792c9c39f459c, 0x404788a49bcedffe,
		0x4017a1173d35f75a, 0x40279e2e269a4d27, 0x403799805d500cc6, 0x4047926441c4f728,
		0x4057885ed7274b5f, 0x40379c3d546dc42b, 0x404798377c34d3a9, 0x40579187fb3097ea,
		0x406787c2e9294e39, 0x405795812fe7a72a, 0x40678fc56b697196, 0x4077868f25fa33a3,
		0x40778be38b0d4c77, 0x408784052c00fcaa, 0x40977ea837ac354a,
	}, mc: 0xc42254c3fbef21b9},
	"chessboard/8": {cov: []uint64{
		0x3f37acc4ef88b976, 0x3f379e8d661f1aa4, 0x3f47a2c3d1d9a6cc, 0x3f579dbe1f66b6f2,
		0x3f67a06fd77a2c76, 0x3f779d852622d597, 0x3f879f007406a600, 0x3f979d74e755e2c0,
		0x3fa79e3b62dcd9b5, 0x3f37acc4ef88b976, 0x3f47a2c3d1d9a6cc, 0x3f57a5a8194f90e2,
		0x3f67a4a809f86a4a, 0x3f77a54030bd2232, 0x3f87a4fd50ada21e, 0x3f97a5220b2bd0d0,
		0x3fa7a510c7ae4b30, 0x3f57a5a92ad3ea0d, 0x3f67a14af065db98, 0x3f77a28bf0b94b60,
		0x3f87a0ff7e4114c6, 0x3f97a1cc67850b27, 0x3fa7a0e9fb3cd32f, 0x3fb7a15c02a4a8ce,
		0x3f77a4367e56c86d, 0x3f87a28bf0b94b60, 0x3f97a31a152e1dc1, 0x3fa7a2de31a33318,
		0x3fb7a2ff54bbdad8, 0x3fc7a2efd77ad6fc, 0x3f97a2dac25ba416, 0x3fa7a21f5961882f,
		0x3fb7a261eb496559, 0x3fc7a206f7bdcc89, 0x3fd7a235618f5807, 0x3fb7a2b3598a77bb,
		0x3fc7a261eb49655a, 0x3fd7a2819d8759c2, 0x3fe7a272f94bb9ee, 0x3fd7a26ae85e72ad,
		0x3fe7a2456d93b67f, 0x3ff7a254f177b18d, 0x3ff7a26669d3ec03, 0x4007a254f177b18d,
		0x4017a25603f3812d,
	}, mc: 0xf3dbb17e864dfb21},
	"chessboard/10": {cov: []uint64{
		0x3f37acc4ef88b976, 0x3f37902ddb7e867d, 0x3f4798a7b4061eb5, 0x3f578e902a2724bc,
		0x3f6793fa0cc6bbd9, 0x3f778e1a8344a42b, 0x3f879116169d3a9d, 0x3f978df9e0633643,
		0x3fa78f8968cd4926, 0x3fb78df18c8f1e91, 0x3fc78ebda76748be, 0x3f37acc4ef88b976,
		0x3f4798a7b4061eb5, 0x3f579e751212560d, 0x3f679c73eb76fd7e, 0x3f779da524f1f485,
		0x3f879d1ef77a9e78, 0x3f979d6874049f2d, 0x3fa79d45ebf53942, 0x3fb79d585c1dd9b5,
		0x3fc79d4f67efea0b, 0x3f579e7965839ffa, 0x3f6795b19d072413, 0x3f779836fc1edcac,
		0x3f8795185eefc1d8, 0x3f9796b51fcbe913, 0x3fa794ed17922c19, 0x3fb795d2c12d1703,
		0x3fc794e1dc8988ba, 0x3fd7955a824fbe03, 0x3f779b908cc4df58, 0x3f879836fc1edcaa,
		0x3f97995447e79986, 0x3fa798dc1ed66780, 0x3fb7991e6c9b39fd, 0x3fc798ff70988f6b,
		0x3fd799100ec69360, 0x3fe799080372dd54, 0x3f9798d5552b6809, 0x3fa7975ba03231ee,
		0x3fb797e1f9212927, 0x3fc7972a8e4fa3fc, 0x3fd797882661fcd9, 0x3fe7971da15b8c42,
		0x3ff797531eca5d5c, 0x3fb7988628a5225a, 0x3fc797e1f9212927, 0x3fd79821cfc4293e,
		0x3fe7980451132095, 0x3ff798140b68e724, 0x4007980c714b0af8, 0x3fd797f4088cc1bd,
		0x3fe797a87a3e581e, 0x3ff797c7c6ee06f2, 0x4007979b1d27f9e5, 0x401797b1b0e96525,
		0x3ff797eb00d6f572, 0x400797c7c6ee06f2, 0x401797d75fed8f3e, 0x402797cfdb4adb5b,
		0x401797c9ee448252, 0x402797b962366571, 0x403797c0de395272, 0x403797c95c93cc6a,
		0x404797c11f2ab579, 0x405797c141f831bd,
	}, mc: 0x6f170a3433716ca3},
	"chessboard/12": {cov: []uint64{
		0x3f37acc4ef88b975, 0x3f377388d5f4d844, 0x3f47847c99caa0bb, 0x3f577054dced289a,
		0x3f677b25552c11bc, 0x3f776f67772932a3, 0x3f87755de80e9ecb, 0x3f976f26747ef528,
		0x3fa772450bd0bad3, 0x3fb76f15b81baa2b, 0x3fc770adbc5ab7dc, 0x3fd76f118759ff3c,
		0x3fe76fdfacf7b713, 0x3f37acc4ef88b975, 0x3f47847c99caa0bb, 0x3f57901581f9b98c,
		0x3f678c157cda9916, 0x3f778e7734069f5c, 0x3f878d6b3ee280e0, 0x3f978dfdd5c59b13,
		0x3fa78db8f95d79dd, 0x3fb78ddd5a81afb5, 0x3fc78dcbb25b3129, 0x3fd78dd511f4bdd9,
		0x3fe78dd072d4463e, 0x3f579026e2bec8dd, 0x3f677e928d1434ef, 0x3f77839d69035569,
		0x3f877d5f58b457f4, 0x3f978099579b3006, 0x3fa77d08f13a7df4, 0x3fb77ed4725bdc63,
		0x3fc77cf250d2a7d1, 0x3fd77de3c95bf0ba, 0x3fe77cec9aab329b, 0x3ff77d683ec7cab5,
		0x3f778a51be44b4cc, 0x3f87839d69035568, 0x3f9785d75e9f9bd9, 0x3fa784e77cccce58,
		0x3fb7856bb6879fd5, 0x3fc7852df19b5a0a, 0x3fd7854eb959ce5c, 0x3fe7853edda1f9d1,
		0x3ff785474e37b4d4, 0x4007854326951099, 0x3f9784dace4443e6, 0x3fa781e6211b4652,
		0x3fb782f3392b5723, 0x3fc7818417838957, 0x3fd7823f7030209e, 0x3fe7816a07049f62,
		0x3ff781d5322934e5, 0x400781636616c480, 0x4017819c5aae3bfe, 0x3fb7843c1ba3cca7,
		0x3fc782f3392b5723, 0x3fd78372eff9688e, 0x3fe78337f0aa20a3, 0x3ff783572dc7fe74,
		0x4007834815f22b24, 0x401783501125f405, 0x4027834c242d7b6c, 0x3fd783176cd16f73,
		0x3fe782801f67f683, 0x3ff782bec9e3b325, 0x400782652ce252ec, 0x4017829279cf6f87,
		0x4027825e4bd3ff75, 0x40378278726347a4, 0x3ff7830552fe634b, 0x400782bec9e3b326,
		0x401782ddb72d5777, 0x402782ced03e4751, 0x403782d6b2f91b64, 0x404782d2d2260329,
		0x401782c31ade4504, 0x402782a1b9ea4fa3, 0x403782b0d563c39e, 0x4047829ac7047ef8,
		0x405782a5de3f4eb6, 0x403782c17482e092, 0x404782b116692482, 0x405782b8f463f962,
		0x406782b516b47c90, 0x405782b17cbe8292, 0x406782a9e224512d, 0x407782ad7d7a4303,
		0x407782b1dab7916f, 0x408782adce2a7b4c, 0x409782adb678ca9d,
	}, mc: 0x27ac87364af4a8e3},
	"block-chessboard/8": {cov: []uint64{
		0x3f37acc4ef88b975, 0x3f37a92a09b66d6e, 0x3f47aa3c69aa7572, 0x3f57a8f5b267dfb0,
		0x3f67a9a4dd64cf4d, 0x3f77a3ffb561b903, 0x3f87a48e3a130b90, 0x3f97a4b31ab226cf,
		0x3fa7a4749e12a023, 0x3f37acc4ef88b976, 0x3f47aa3c69aa7572, 0x3f57aaf76b0d2bb0,
		0x3f67aab6c755e697, 0x3f77a44ae267bce2, 0x3f87a4e0b370c4a3, 0x3f97a4e62b3ed69d,
		0x3fa7a4ab6a9955cb, 0x3f57aaf77c9f9372, 0x3f67a9dc5a4ab636, 0x3f77aa2dd25d5af1,
		0x3f87a4381f515347, 0x3f97a4c6109b2b03, 0x3fa7a4c618116947, 0x3fb7a48de0737852,
		0x3f77aa99f3250472, 0x3f87aa2dd25d5af1, 0x3f97a42ee2087a7f, 0x3fa7a4becb3ccecd,
		0x3fb7a4c96590fe7c, 0x3fc7a48ee38ef175, 0x3f97aa41b3d3d131, 0x3fa7a4338ca4a7b0,
		0x3fb7a4c20fdbb496, 0x3fc7a4c7de96e2e7, 0x3fd7a48e424001c1, 0x3fb7a1b758d0f101,
		0x3fc7a1bb954c1077, 0x3fd7a1d3d6453af0, 0x3fe7a1a2cc5d9143, 0x3fd7a23ed0e63ae0,
		0x3fe7a23c8e8018f0, 0x3ff7a205d879a93d, 0x3ff7a2717df98186, 0x4007a230a89beddd,
		0x4017a20198fdef15,
	}, mc: 0x6c902fab2e9191fd},
	"block-chessboard/10": {cov: []uint64{
		0x3f37acc4ef88b976, 0x3f37a91998499f6a, 0x3f47aa31f4973d75, 0x3f57a8dd2584ff93,
		0x3f67a992d88d898f, 0x3f779fddc194ffb3, 0x3f879e296802b6bb, 0x3f979dc69c5913ca,
		0x3fa79d3aa09874b8, 0x3fb79cd9e552eb4a, 0x3fc79cd25f37c716, 0x3f37acc4ef88b976,
		0x3f47aa31f4973d75, 0x3f57aaef26876e8b, 0x3f67aaade1329157, 0x3f77a004a0a32c9b,
		0x3f879e4ec8ae60db, 0x3f979dea237516ba, 0x3fa79d5e9363fded, 0x3fb79cfa1b6a7239,
		0x3fc79cf1aa38bfc0, 0x3f57aaef43e92c6f, 0x3f67a9cb009b71fb, 0x3f77aa205ce00d73,
		0x3f879feda7339ccd, 0x3f979e3a8b9914df, 0x3fa79dd89bbcd91e, 0x3fb79d4e5e930920,
		0x3fc79ce9dce6409d, 0x3fd79ce201a92d98, 0x3f77aa909c4034f2, 0x3f87aa205ce00d72,
		0x3f979feee98253ae, 0x3fa79e3b7de350cf, 0x3fb79dd8222d7266, 0x3fc79d4cfc3bae53,
		0x3fd79ce97677885f, 0x3fe79ce18a00dbd2, 0x3f97aa3497c884bc, 0x3fa79fee22905e79,
		0x3fb79e3a9a079f5b, 0x3fc79dd85e578a9b, 0x3fd79d4d930c006d, 0x3fe79ce9aaa79d11,
		0x3ff79ce1c82e9796, 0x3fb79b76019cd514, 0x3fc79a04c1a4b40a, 0x3fd799c2fa1d1b85,
		0x3fe79958dd486ccf, 0x3ff79911221714bf, 0x4007990cd95c8b89, 0x3fd7994cd68d389c,
		0x3fe798de38e75f61, 0x3ff79872517b0344, 0x4007982be5016394, 0x401798254506533e,
		0x3ff798bf8e065dc9, 0x400798508722cae2, 0x401798087d5de830, 0x402798025c680c2e,
		0x4017980916e90e25, 0x402797becfffa780, 0x403797b751eca6d5, 0x403797806165f16b,
		0x404797772ae3489d, 0x40579772bcbe6b34,
	}, mc: 0xdabcf7483dc12b67},
	"block-chessboard/12": {cov: []uint64{
		0x3f37acc4ef88b975, 0x3f37a8e740ff6345, 0x3f47aa12959509b9, 0x3f57a8b1aa2ceaf5,
		0x3f67a96e5847b031, 0x3f7790ca66e1a6ad, 0x3f878e10d1a58c24, 0x3f978c7bffef30a7,
		0x3fa78d3b5670db6d, 0x3fb78c826a2f3547, 0x3fc78caf495add40, 0x3fd78c959df02cfb,
		0x3fe78c8eda7187ba, 0x3f37acc4ef88b975, 0x3f47aa12959509b9, 0x3f57aad6040ef192,
		0x3f67aa92f8778975, 0x3f7790da78d20df4, 0x3f878e1ff526b826, 0x3f978c8dcb24ee93,
		0x3fa78d50d731405b, 0x3fb78c96aa03015d, 0x3fc78cc1c16a9d0f, 0x3fd78ca788fc7bf6,
		0x3fe78ca16a0f08f2, 0x3f57aad618440e5d, 0x3f67a9a9019af6ec, 0x3f77aa00a85f9cd3,
		0x3f8790be88952c5c, 0x3f978e1366a1ecfc, 0x3fa78c84575098e2, 0x3fb78d47490d9295,
		0x3fc78c8d0b4721c7, 0x3fd78cb7f11eb2c6, 0x3fe78c9e75a4b7a9, 0x3ff78c987f8d82c2,
		0x3f77aa7456ec8c0b, 0x3f87aa00a85f9cd3, 0x3f9790c87b182204, 0x3fa78e15ebb4e53a,
		0x3fb78c84b460917e, 0x3fc78d46bb14b359, 0x3fd78c8cd81f3c7f, 0x3fe78cb84906c622,
		0x3ff78c9e9195f690, 0x40078c985cb7ecfc, 0x3f97aa1561a47f52, 0x3fa790c4185e9a62,
		0x3fb78e14bcaefaa6, 0x3fc78c847e87e244, 0x3fd78d46e157dba9, 0x3fe78c8cf1ab63f8,
		0x3ff78cb817baff20, 0x40078c9e8661885f, 0x40178c986bc820b0, 0x3fb786fe190aaae6,
		0x3fc784ebd402f57b, 0x3fd7836567254b33, 0x3fe7838c217d2314, 0x3ff782f7d2cf2b8f,
		0x4007831dda6a33f0, 0x401783126f2a1d66, 0x4027831077a46399, 0x3fd783dc84170def,
		0x3fe7826d4c6daa90, 0x3ff7829a5ba22f9a, 0x4007820246d38338, 0x401782281cfb504f,
		0x4027821f954fd43c, 0x4037821d784c0744, 0x3ff781b52b77ffeb, 0x400781df5665caa1,
		0x401781290a8da6c0, 0x4027814b14d3d4d5, 0x403781412cb76632, 0x4047813ec1bd8fa9,
		0x4017825dddac4e02, 0x4027819d244c926e, 0x403781bf57bf59b9, 0x404781b3f9ef3f92,
		0x405781b170d44aa7, 0x4037810101c93ed4, 0x404781211e5c5a54, 0x405781153419ce3c,
		0x4067811276e5f3bf, 0x4057814c22747137, 0x4067813fe8332d01, 0x4077813c9bcbd9d9,
		0x407781370a94c4b2, 0x4087813386a23aac, 0x40978131392bcb47,
	}, mc: 0x49b54d0cdb1e5e6e},
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

// TestKernelEvalsPerKeyRow pins the spectra build's work on the final
// routed 12-bit MaxParallel-2 arrays: one 65-point kernel row (M = 128)
// per distinct row of RhoTable keys. The rows' Δx² are 1131, 1165 and
// 1421 distinct floats, but channel offsets make many of them differ
// only by round-off, which the 1e-6 µm² key absorbs.
func TestKernelEvalsPerKeyRow(t *testing.T) {
	tch := tech.FinFET12()
	for _, c := range []struct {
		style string
		rows  int64
	}{{"spiral", 571}, {"chessboard", 241}, {"block-chessboard", 617}} {
		var m *ccmatrix.Matrix
		var err error
		switch c.style {
		case "spiral":
			m, err = place.NewSpiral(12)
		case "chessboard":
			m, err = place.NewChessboard(12)
		default:
			m, err = place.NewBlockChessboard(12, place.BCParams{CoreBits: 4, BlockCells: 2})
		}
		if err != nil {
			t.Fatal(err)
		}
		l := routedPromoted(par.WithWorkers(context.Background(), 2), t, m, tch)
		g := gatherCells(m, l.CellCenter)
		lat := fitLattice(g.flat, g.rows, g.cols)
		if !lat.ok {
			t.Fatalf("%s: routed layout does not fit the separable lattice", c.style)
		}
		emb, err := mismatchSemiEmbedding(tch, lat.sg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.rows * 65; emb.KernelEvals != want {
			t.Errorf("12-bit %s: KernelEvals = %d (%d rows of 65), want %d rows", c.style, emb.KernelEvals, emb.KernelEvals/65, c.rows)
		}
	}
}
