package hiddendb

import (
	"math/bits"
	"math/rand"
	"testing"
)

// andBitmapsScalar is the pre-unroll word-at-a-time kernel, kept as the
// equivalence reference for TestBitmapANDUnrollEquivalence and the
// "before" half of BenchmarkBitmapAND in BENCH_serving.out.
func andBitmapsScalar(a, b *idBitmap, dst []uint16) []uint16 {
	for w := 0; w < bitmapWords; w++ {
		m := a[w] & b[w]
		base := uint16(w << 6)
		for m != 0 {
			dst = append(dst, base|uint16(bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
	return dst
}

// TestBitmapANDUnrollEquivalence pins the 8-way unrolled word-AND kernel
// against the scalar reference across densities from empty to near-full,
// including adversarial shapes: bits clustered inside one 8-word block,
// bits on block boundaries, and alternating blocks.
func TestBitmapANDUnrollEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dst := make([]uint16, 0, 1<<16)
	build := func(lows []uint16) *idBitmap {
		var b idBitmap
		for _, low := range lows {
			b.set(low)
		}
		return &b
	}
	cases := [][2][]uint16{
		{nil, nil},
		{{0}, {0}},
		{{0, 63, 64, 511, 512, 65535}, {63, 64, 512, 65535}},
		// One dense block, everything else empty.
		{seqRange(1024, 1536), seqRange(1280, 2048)},
	}
	for round := 0; round < 40; round++ {
		na := []int{1, 50, 5000, 40000, 65000}[rng.Intn(5)]
		nb := []int{1, 50, 5000, 40000, 65000}[rng.Intn(5)]
		cases = append(cases, [2][]uint16{randSet(rng, na), randSet(rng, nb)})
	}
	for i, c := range cases {
		a, b := build(c[0]), build(c[1])
		got := andBitmaps(a, b, dst[:0])
		want := andBitmapsScalar(a, b, make([]uint16, 0, len(got)))
		if !eqU16(got, want) {
			t.Fatalf("case %d: unrolled AND diverged: %d IDs, want %d", i, len(got), len(want))
		}
	}
}

func seqRange(lo, hi int) []uint16 {
	out := make([]uint16, 0, hi-lo)
	for x := lo; x < hi; x++ {
		out = append(out, uint16(x))
	}
	return out
}

// BenchmarkBitmapAND is the before/after pair for the unrolled kernel in
// BENCH_load/BENCH_serving tracking: scalar vs 8-way unrolled word-AND at
// sparse (typical multi-predicate intersection) and dense densities.
func BenchmarkBitmapAND(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name     string
		a, b     []uint16
		comments string
	}{
		// Uniform-random bits: every 8-word block occupied, so the win
		// comes from register-resident masks, not the block skip.
		{name: "sparse4k", a: randSet(rng, 4096), b: randSet(rng, 4096)},
		{name: "dense32k", a: randSet(rng, 32768), b: randSet(rng, 32768)},
		// ID-clustered lists (attributes correlated with insertion time):
		// each side occupies a band, the AND lives in the overlap and the
		// other ~2/3 of the blocks skip in one branch per 512 bits.
		{name: "clustered", a: seqRange(0, 28000), b: seqRange(20000, 48000)},
	} {
		var ba, bb idBitmap
		for _, low := range tc.a {
			ba.set(low)
		}
		for _, low := range tc.b {
			bb.set(low)
		}
		dst := make([]uint16, 0, 1<<16)
		b.Run(tc.name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = andBitmapsScalar(&ba, &bb, dst[:0])
			}
		})
		b.Run(tc.name+"/unrolled8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = andBitmaps(&ba, &bb, dst[:0])
			}
		})
	}
}
