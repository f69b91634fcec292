package nn

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"geomancy/internal/mat"
)

// goldenDataset is a belle-shaped training set: six features, one target,
// and a row count whose last batch of 32 ends in a partial 8-row chunk
// (1003 = 31·32 + 11). Feature 5 is a constant 0 — a column min-max
// scaling maps to zero whenever a telemetry field never varies — so every
// batch carries whole zero columns into the first layer's weight gradient.
//
// targetScale multiplies every target; un-normalized targets far outside
// the weights' range make a model diverge.
func goldenDataset(targetScale float64) *Dataset {
	rng := rand.New(rand.NewSource(41))
	const n, z = 1003, 6
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		rows[i] = make([]float64, z)
		var s float64
		for c := 0; c < z-1; c++ {
			rows[i][c] = rng.Float64()
			s += rows[i][c]
		}
		y[i] = (s/float64(z-1) + 0.05*rng.Float64()) * targetScale
	}
	return NewDataset(mat.FromRows(rows), y)
}

// paramsDigest is an FNV-64a hash over the bit patterns of every trained
// parameter in layer order, so any single-ulp (or NaN-payload) change in
// any weight changes the digest.
func paramsDigest(net *Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range net.Params() {
		for _, v := range p.Data {
			b := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestFitGoldenWeights pins the exact training result — the final loss
// bits and a digest of every weight — of seeded belle-shaped fits. The
// parallel ≡ parallel and serial ≡ serial tests only compare the code with
// itself; these constants were recorded before the training kernels were
// rewritten, so they prove a kernel or buffer-reuse change is bit-identical
// to the straightforward implementation. The diverging model-5 cases train
// on targets scaled by 1e100 and pin the NaN/Inf semantics: once the
// gradients overflow, a zero input element times an infinite gradient must
// still contribute nothing, so the constant feature's weights stay finite.
//
// Each case runs twice, on the AVX2 kernels (where the CPU has them) and
// on the pure-Go fallback, and both must hit the same constants.
//
// The constants hold for amd64, where Go never contracts a*b+c into a
// fused multiply-add; architectures that do fuse round differently.
func TestFitGoldenWeights(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden weights are recorded for amd64 rounding, not %s", runtime.GOARCH)
	}
	cases := []struct {
		name       string
		model, par int
		scale      float64
		diverges   bool
		loss       uint64
		digest     uint64
	}{
		{name: "model1/serial", model: 1, par: 1, scale: 1, loss: 0x3f6163e6553fa621, digest: 0x40cc159b98de8be5},
		{name: "model1/par2", model: 1, par: 2, scale: 1, loss: 0x3f6163e6553fa621, digest: 0xe6335401ac918878},
		{name: "model18/serial", model: 18, par: 1, scale: 1, loss: 0x3f7db5221ecbb44a, digest: 0x2198e6f45158285d},
		{name: "model18/par2", model: 18, par: 2, scale: 1, loss: 0x3f7db5221ecbb44c, digest: 0xd50351756f63b9eb},
		{name: "model5/serial", model: 5, par: 1, scale: 1e100, diverges: true, loss: 0xfff8000000000000, digest: 0x88f60fb31263abd6},
		{name: "model5/par2", model: 5, par: 2, scale: 1e100, diverges: true, loss: 0xfff8000000000000, digest: 0x88f60fb31263abd6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, simd := range []bool{true, false} {
				path := "go"
				if simd {
					path = "simd"
				}
				loss, digest := goldenFit(t, simd, tc.model, tc.par, tc.scale)
				if diverged := math.IsNaN(loss) || math.IsInf(loss, 0); diverged != tc.diverges {
					t.Fatalf("%s: loss %v: diverged = %v, want %v", path, loss, diverged, tc.diverges)
				}
				if got := math.Float64bits(loss); got != tc.loss {
					t.Errorf("%s: loss bits = %#x (%v), want %#x", path, got, loss, tc.loss)
				}
				if digest != tc.digest {
					t.Errorf("%s: params digest = %#x, want %#x", path, digest, tc.digest)
				}
			}
		})
	}
}

// goldenFit trains the seeded golden model, with the SIMD kernels on or
// off, and returns its final loss and parameter digest.
func goldenFit(t *testing.T, simd bool, model, par int, scale float64) (float64, uint64) {
	t.Helper()
	defer mat.SetSIMD(simd)()
	net, err := BuildModel(model, 6, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	loss, err := net.Fit(goldenDataset(scale), FitConfig{
		Epochs:      6,
		BatchSize:   32,
		Optimizer:   &SGD{LR: 0.05},
		Rng:         rand.New(rand.NewSource(2)),
		Parallelism: par,
	})
	if err != nil {
		t.Fatal(err)
	}
	return loss, paramsDigest(net)
}
