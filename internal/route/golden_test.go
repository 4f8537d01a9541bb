package route

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
	"ccdac/internal/groups"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// layoutHash is an FNV-1a digest of every routed field: each wire,
// via and cluster (anchor and partner groups by their cells), the
// channel slot counts, parallel counts, terminals and extents.
func layoutHash(l *Layout) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i := func(v int) { u(uint64(int64(v))) }
	f := func(v float64) { u(math.Float64bits(v)) }
	pt := func(p geom.Pt) { f(p.X); f(p.Y) }
	cell := func(c geom.Cell) { i(c.Row); i(c.Col) }
	group := func(g *groups.Group) {
		i(g.Bit)
		i(len(g.Cells))
		for _, c := range g.Cells {
			cell(c)
		}
	}
	i(len(l.Wires))
	for _, w := range l.Wires {
		pt(w.Seg.A)
		pt(w.Seg.B)
		i(w.Layer)
		i(w.Par)
		i(w.Bit)
		i(int(w.Kind))
	}
	i(len(l.Vias))
	for _, v := range l.Vias {
		pt(v.At)
		i(v.LayerA)
		i(v.LayerB)
		i(v.Par)
		i(v.Bit)
		if v.Input {
			i(1)
		} else {
			i(0)
		}
	}
	i(len(l.Clusters))
	for _, c := range l.Clusters {
		i(c.Bit)
		group(c.Anchor)
		cell(c.AnchorCell)
		i(len(c.Partners))
		for _, p := range c.Partners {
			group(p.G)
			cell(p.Cell)
		}
		i(c.Channel)
		i(c.SlotStart)
		if c.Direct {
			i(1)
		} else {
			i(0)
		}
	}
	for _, s := range l.ChannelSlots {
		i(s)
	}
	for _, p := range l.Par {
		i(p)
	}
	for _, p := range l.Terminals {
		pt(p)
	}
	f(l.Width)
	f(l.Height)
	return h.Sum64()
}

// goldenRoutes pins layoutHash per (style, bits) for each router
// variant, in the column order of goldenVariants. The values were
// captured before the router's channel selection and wire emission
// were reworked; a routing change that moves one coordinate, slot or
// cluster fails here.
var goldenRoutes = map[string][6]uint64{
	"spiral/6":            {0xa07be09ece46247, 0xecf56bea7c540b2c, 0x1e6819695b56ba80, 0x4c2f467d77150677, 0xbedbd7db153cb85a, 0xd42734b3eb284c9d},
	"spiral/7":            {0xe1abf88f40933ee5, 0xe1abf88f40933ee5, 0xe746ca54e36bfe82, 0xa4571dd3ad458bd7, 0xa4571dd3ad458bd7, 0xe659362ee155ff99},
	"spiral/8":            {0xdb490d5e63e0ba8e, 0x4dbfc7b5bd0fde3, 0x50a76d92bae8f6c7, 0x16f200ca59156c0, 0x28a090945e1b778, 0x363483afd09d3358},
	"spiral/9":            {0xac8cc806e1ff5fb5, 0xac8cc806e1ff5fb5, 0x7377f298cc1e4e06, 0x1ec07a360c91b601, 0x1ec07a360c91b601, 0x3bb61661b03235a},
	"spiral/10":           {0x3471e4d3f6363b40, 0x94f1b173630da127, 0x47a897f519a6e6fc, 0xf461adda71a0e131, 0xe17d4fe1ccd05943, 0xdc20408ad715113},
	"spiral/11":           {0x8dd7393a88fee8f6, 0x8dd7393a88fee8f6, 0x4d2b5e387399d963, 0x37e0d074ad3b08dc, 0x37e0d074ad3b08dc, 0xfd4d105db9871348},
	"spiral/12":           {0x8fbc7c439d8a270d, 0x5a84cdb3cd91e68, 0x51be0776b54a51c8, 0x55e61b900d810b46, 0xa23e668e1ff0ee60, 0x16e748cd3592ef29},
	"chessboard/6":        {0xc78fc898c2f5ff8c, 0x6989a1cef9106178, 0xc3c5523d406c6788, 0x72ea912e0ed61c4d, 0x65949321cc5fe23b, 0x6060d5ffd487a498},
	"chessboard/7":        {0xd097ad4692318e77, 0x2fb92bef2c3403de, 0xcfbc28188897f335, 0x853401bf138c42b0, 0x8d6b39402c096f9c, 0xd1d132c40dfe84c3},
	"chessboard/8":        {0x5746a3ffa9fb663, 0x676f315f9e85b36e, 0x3409fce5e5d0ad1, 0x3a45960ab6cba671, 0xe23bd5c71ae91ab4, 0xc7e44eaa144e8e52},
	"chessboard/9":        {0xda2d4504160a74f, 0x41e66a220c8836d6, 0x9f629300ee4a3f47, 0x81d9a9700e4e1a94, 0x4acbd95a97c32f31, 0x9577913f561bd056},
	"chessboard/10":       {0x9ee91e4adc59207e, 0x6b6d8425cc70495b, 0xa60069454399d8fa, 0x735937b8fa2b396f, 0xd8909173d235369c, 0xadeed3ed91fd5527},
	"chessboard/11":       {0xca2786ee37419cee, 0x13497284cc00f537, 0x2c06e3a4a7418191, 0x82e58ade142a8df9, 0x9ae2ec4bc2791a74, 0x9db109e6480d3ae8},
	"chessboard/12":       {0x6bddf1cf5a5ff02b, 0xb71eef29b62a8488, 0x66853f389761d988, 0x493f144d0cfa6b6a, 0xfaea6cd968d2ef6b, 0x9a63969f0e6ebbd5},
	"block-chessboard/6":  {0xb52d94cb80045b5b, 0x328028d730c693bf, 0x5ac832ed8c8fa67c, 0x39e404f86700b1db, 0xd1baccc9273f5bee, 0xdd0822afca4031b2},
	"block-chessboard/7":  {0x549e49f330dd6cd9, 0x877bc6767d40632e, 0x3ee67e858fb15f1b, 0x90d648a6bfc90535, 0x48f43dae797f091e, 0xbe8cffa9df97390},
	"block-chessboard/8":  {0xa645a19c2747f34a, 0xe7e921dac64fe514, 0x524dbb6140756491, 0xe42d4c91518aa56, 0x46e6f288647bec15, 0x3a71f62f65beff12},
	"block-chessboard/9":  {0xda03b13d539feea, 0x9cff5e8158a444bf, 0xf88b0d8089159d08, 0x72d0a8745debf28e, 0x156f8dc52be0542a, 0xb681e2bd7d9f1026},
	"block-chessboard/10": {0xc61acac2e6439716, 0x7c8f70491f51da0d, 0xef0c18854981883d, 0x2f9d517eea2cbe2d, 0x8d938e761bee0caa, 0x75cb3b1f9f197644},
	"block-chessboard/11": {0x729e8fd5b13c0955, 0x1e9197d354874ce9, 0x469b856e25f42bfd, 0x9fc74ad6993a8108, 0xda9b2e62877df056, 0x3ddb0b547b9dfb5c},
	"block-chessboard/12": {0x5db8b4777ed30503, 0x632cf25db7ec9d54, 0x220a1f559750628, 0x5657d881d8ab57fc, 0xae128ab14237a018, 0x9c7bfcae2c08ce0e},
	"annealed/6":          {0xcc0f1b05435fc035, 0xcc0f1b05435fc035, 0x835db26bf2c9eed6, 0xa4cfb16611ce0985, 0xa4cfb16611ce0985, 0x7225a01487d0f6af},
	"annealed/8":          {0x57331a0a667b5ba, 0x57331a0a667b5ba, 0xd238598b798a1cb, 0x81d233530f926c0e, 0x81d233530f926c0e, 0xada54e17d80e5b80},
	"annealed/10":         {0xb86d4221ef9fd276, 0xd3ec299aca26e0c5, 0xcdb1e70996a899cf, 0x84015ea88e4f470b, 0xc977655a5faefa4, 0xbb83ded8931b9ed2},
	"annealed/12":         {0x8412630123e32b32, 0xf7fdc2bfdd2b21c3, 0x42c326a71adf2bc4, 0xc296557405a23286, 0x47d373c10f5cc27b, 0x2c4ba9971e37e342},
}

// goldenVariants are the router inputs each goldenRoutes row covers:
// the paper's Algorithm 1, then with partnering off (every group takes
// the isolated-group branch) and with direct stubs off, each at unit
// parallel counts and with the two top bits promoted to two wires.
var goldenVariants = []struct {
	name     string
	opts     Options
	promoted bool
}{
	{"default", Options{}, false},
	{"no-partnering", Options{NoPartnering: true}, false},
	{"no-stubs", Options{NoDirectStubs: true}, false},
	{"default/par2", Options{}, true},
	{"no-partnering/par2", Options{NoPartnering: true}, true},
	{"no-stubs/par2", Options{NoDirectStubs: true}, true},
}

func goldenPlacement(t *testing.T, style string, bits int) *ccmatrix.Matrix {
	t.Helper()
	var m *ccmatrix.Matrix
	var err error
	switch style {
	case "spiral":
		m, err = place.NewSpiral(bits)
	case "chessboard":
		m, err = place.NewChessboard(bits)
	case "block-chessboard":
		m, err = place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
	case "annealed":
		m, err = place.NewAnnealed(bits, place.AnnealConfig{Seed: 1, Moves: 2000})
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenLayouts requires every routed layout to match the captured
// digests exactly: the router's output feeds the extraction, the stage
// memo and the benchmark's reference metrics, so any change to channel
// selection or wire emission must leave it untouched.
func TestGoldenLayouts(t *testing.T) {
	tch := tech.FinFET12()
	var got strings.Builder
	mismatch := false
	for _, style := range []string{"spiral", "chessboard", "block-chessboard", "annealed"} {
		for bits := 6; bits <= 12; bits++ {
			if style == "annealed" && bits%2 != 0 {
				continue // the annealed baseline exists for even sizes only
			}
			m := goldenPlacement(t, style, bits)
			key := fmt.Sprintf("%s/%d", style, bits)
			var row [6]uint64
			for vi, v := range goldenVariants {
				var par []int
				if v.promoted {
					par = make([]int, bits+1)
					for b := range par {
						par[b] = 1
					}
					par[bits], par[bits-1] = 2, 2
				}
				l, err := RouteWithOptions(m, tch, par, v.opts)
				if err != nil {
					t.Fatalf("%s %s: %v", key, v.name, err)
				}
				row[vi] = layoutHash(l)
				if want := goldenRoutes[key]; want[vi] != row[vi] {
					t.Errorf("%s %s: layout hash %#x, want %#x", key, v.name, row[vi], want[vi])
					mismatch = true
				}
			}
			fmt.Fprintf(&got, "\t%q: {%#x, %#x, %#x, %#x, %#x, %#x},\n", key,
				row[0], row[1], row[2], row[3], row[4], row[5])
		}
	}
	if mismatch {
		t.Logf("current digests:\n%s", got.String())
	}
}
