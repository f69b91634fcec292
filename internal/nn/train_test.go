package nn

import (
	"math/rand"
	"testing"
)

// Dense training allocates its working memory once per Fit: a model-1
// Fit's allocation count must not grow with the number of minibatches,
// serially or with parallel chunk workers.
func TestFitAllocationsIndependentOfBatchCount(t *testing.T) {
	ds := testDataset(rand.New(rand.NewSource(8)), 300, 6) // 10 batches per epoch, a 12-row tail
	for _, par := range []int{1, 2} {
		allocs := func(epochs int) float64 {
			net, err := BuildModel(1, 6, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			cfg := FitConfig{
				Epochs:      epochs,
				BatchSize:   32,
				Optimizer:   &SGD{LR: 0.05},
				Rng:         rand.New(rand.NewSource(2)),
				Parallelism: par,
			}
			return testing.AllocsPerRun(3, func() {
				if _, err := net.Fit(ds, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Four epochs run 30 more batches than one, so a per-batch
		// allocation adds at least 30. The slack covers the runtime's own
		// bookkeeping when the helper goroutine parks (an occasional +1).
		one, four := allocs(1), allocs(4)
		if four-one > 4 {
			t.Errorf("Parallelism %d: %v allocs for 1 epoch, %v for 4: training allocates per batch", par, one, four)
		}
		t.Logf("Parallelism %d: %v allocs per Fit (1 epoch), %v (4 epochs)", par, one, four)
	}
}
