package sig

import (
	"math"
	"math/rand"
)

// Codebook is a set of k visual-word centroids in descriptor space, trained
// with k-means (k-means++ seeding, Lloyd iterations). It quantizes SIFT
// descriptors into word indices for bag-of-visual-words histograms.
type Codebook struct {
	Centroids [][]float64
}

// Assign returns the index of the centroid nearest to desc (squared
// Euclidean distance). An empty codebook assigns everything to word 0.
func (cb *Codebook) Assign(desc []float64) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range cb.Centroids {
		d := sqDist(desc, c)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// TrainCodebook clusters the descriptors into k centroids. Training is
// deterministic for a fixed seed. When fewer than k distinct descriptors
// exist the codebook still has k centroids (duplicates are tolerated; they
// simply never win assignments). A nil/empty descriptor set produces a
// codebook of k zero vectors so downstream code stays total.
func TrainCodebook(descs [][]float64, k int, seed int64) *Codebook {
	if k <= 0 {
		k = 1
	}
	cb := &Codebook{Centroids: make([][]float64, k)}
	if len(descs) == 0 {
		for i := range cb.Centroids {
			cb.Centroids[i] = make([]float64, descriptorSize)
		}
		return cb
	}
	rng := rand.New(rand.NewSource(seed))
	dim := len(descs[0])

	// k-means++ seeding.
	first := rng.Intn(len(descs))
	cb.Centroids[0] = append([]float64(nil), descs[first]...)
	minD := make([]float64, len(descs))
	for i := range minD {
		minD[i] = sqDist(descs[i], cb.Centroids[0])
	}
	for c := 1; c < k; c++ {
		total := 0.0
		for _, d := range minD {
			total += d
		}
		var idx int
		if total <= 0 {
			idx = rng.Intn(len(descs))
		} else {
			target := rng.Float64() * total
			acc := 0.0
			for i, d := range minD {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		cb.Centroids[c] = append([]float64(nil), descs[idx]...)
		for i := range minD {
			if d := sqDist(descs[i], cb.Centroids[c]); d < minD[i] {
				minD[i] = d
			}
		}
	}

	// Lloyd iterations.
	assign := make([]int, len(descs))
	for iter := 0; iter < 20; iter++ {
		changed := false
		for i, d := range descs {
			a := cb.Assign(d)
			if a != assign[i] {
				assign[i] = a
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for i, d := range descs {
			a := assign[i]
			counts[a]++
			for j, v := range d {
				sums[a][j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the descriptor farthest from
				// its centroid, the standard fix for collapsed clusters.
				far, farD := 0, -1.0
				for i, d := range descs {
					if dd := sqDist(d, cb.Centroids[assign[i]]); dd > farD {
						far, farD = i, dd
					}
				}
				cb.Centroids[c] = append([]float64(nil), descs[far]...)
				continue
			}
			for j := range sums[c] {
				sums[c][j] /= float64(counts[c])
			}
			cb.Centroids[c] = sums[c]
		}
	}
	return cb
}

func sqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := 0.0
	for i := 0; i < n; i++ {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}
