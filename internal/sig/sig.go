// Package sig computes tile signatures: compact numerical representations
// of a data tile used by the Signature-Based recommender to find visually
// similar tiles (paper §4.3.3, Table 2).
//
// Four signatures are implemented, matching Table 2:
//
//	normal     mean and standard deviation of the tile's cells
//	histogram  1-D histogram of cell values with fixed bins
//	sift       bag-of-visual-words histogram over SIFT keypoint descriptors
//	densesift  spatially pooled bag-of-visual-words over a dense descriptor
//	           grid (captures landmarks *and* their positions)
//
// All four produce histogram-shaped vectors, so the Chi-Squared distance
// applies to each (paper §4.3.3). The SIFT variants quantize descriptors
// against a k-means codebook trained on the pyramid's own tiles, replacing
// the paper's OpenCV + external features pipeline.
//
// The signature shapes (histogram bins, codebook words, the keypoint cap
// and the dense stride) are constants, the one configuration the
// experiments run. A Config names only the attribute, its value range and
// the codebook's training seed.
package sig

import (
	"math"

	"forecache/internal/tile"
)

// Signature names, used as keys in tile.Tile.Signatures.
const (
	NameNormal    = "normal"
	NameHistogram = "histogram"
	NameSIFT      = "sift"
	NameDenseSIFT = "densesift"
)

// AllNames lists every signature in canonical order.
func AllNames() []string {
	return []string{NameNormal, NameHistogram, NameSIFT, NameDenseSIFT}
}

// The signature shapes every experiment uses.
const (
	// histBins is the 1-D histogram's bin count.
	histBins = 16
	// words is the codebook size (visual word count) for SIFT and
	// DenseSIFT.
	words = 24
	// maxKeypoints caps SIFT keypoints per tile (strongest first).
	maxKeypoints = 48
	// denseStride is the cell stride of the DenseSIFT sampling grid.
	denseStride = 8
)

// Config parameterizes signature computation for one attribute.
type Config struct {
	// Attr is the tile attribute the signatures describe (e.g. "ndsi_avg").
	Attr string
	// ValueMin and ValueMax bound the attribute's values; histograms and
	// normalizations use this range. For NDSI the range is [-1, 1].
	ValueMin, ValueMax float64
	// Seed drives the deterministic k-means codebook training.
	Seed int64
}

// DefaultConfig returns the configuration used by the experiments for the
// NDSI dataset.
func DefaultConfig(attr string) Config {
	return Config{Attr: attr, ValueMin: -1, ValueMax: 1, Seed: 1}
}

// Computer computes all four signatures for tiles. The SIFT codebook must
// be trained (TrainCodebook) before Compute produces the two SIFT-family
// signatures; until then Compute returns only normal and histogram.
type Computer struct {
	cfg      Config
	codebook *Codebook
}

// NewComputer returns a Computer for the given configuration. An empty
// value range falls back to [0, 1].
func NewComputer(cfg Config) *Computer {
	if cfg.ValueMax <= cfg.ValueMin {
		cfg.ValueMin, cfg.ValueMax = 0, 1
	}
	return &Computer{cfg: cfg}
}

// TrainCodebook extracts SIFT descriptors from the given training tiles and
// clusters them into the visual-word codebook. It must be called before
// Compute can emit sift/densesift signatures. Training is deterministic
// for a fixed Config.Seed.
func (c *Computer) TrainCodebook(tiles []*tile.Tile) {
	var descs [][]float64
	for _, t := range tiles {
		g := c.normalizeGrid(t)
		if g == nil {
			continue
		}
		gr := newGradients(g, t.Size)
		kps := detectKeypoints(g, t.Size, maxKeypoints)
		for _, kp := range kps {
			descs = append(descs, gr.describe(make([]float64, descriptorSize), kp.y, kp.x))
		}
		// Include a sparse sample of dense descriptors so the codebook also
		// covers textureless regions that keypoint detection skips.
		for y := denseStride / 2; y < t.Size; y += denseStride * 2 {
			for x := denseStride / 2; x < t.Size; x += denseStride * 2 {
				descs = append(descs, gr.describe(make([]float64, descriptorSize), y, x))
			}
		}
	}
	c.codebook = TrainCodebook(descs, words, c.cfg.Seed)
}

// Compute returns the signature vectors for the tile, keyed by signature
// name. It is a tile.MetadataFunc:
//
//	pyr.ComputeMetadata(computer.Compute)
func (c *Computer) Compute(t *tile.Tile) map[string][]float64 {
	out := make(map[string][]float64, 4)
	out[NameNormal] = c.Normal(t)
	out[NameHistogram] = c.Histogram(t)
	if c.codebook != nil {
		sift, dense := make([]float64, words), make([]float64, 4*words)
		if g := c.normalizeGrid(t); g != nil {
			// Both signatures describe patches of the one gradient table.
			gr := newGradients(g, t.Size)
			desc := make([]float64, descriptorSize)
			c.sift(sift, gr, desc)
			c.denseSIFT(dense, gr, desc)
		}
		out[NameSIFT], out[NameDenseSIFT] = sift, dense
	}
	return out
}

// Normal computes the normal-distribution signature: the mean and standard
// deviation of the tile's cells, normalized into [0,1] by the value range
// so the Chi-Squared distance remains well defined.
func (c *Computer) Normal(t *tile.Tile) []float64 {
	mean, std, _, _, n, err := t.Stats(c.cfg.Attr)
	span := c.cfg.ValueMax - c.cfg.ValueMin
	if err != nil || n == 0 {
		return []float64{0, 0}
	}
	return []float64{
		clamp01((mean - c.cfg.ValueMin) / span),
		clamp01(std / span),
	}
}

// Histogram computes the 1-D histogram signature: histBins equal-width bins
// over [ValueMin, ValueMax], normalized to sum to 1 (empty tiles produce
// the zero vector).
func (c *Computer) Histogram(t *tile.Tile) []float64 {
	h := make([]float64, histBins)
	g, err := t.Grid(c.cfg.Attr)
	if err != nil {
		return h
	}
	span := c.cfg.ValueMax - c.cfg.ValueMin
	n := 0
	for _, v := range g {
		if math.IsNaN(v) {
			continue
		}
		b := int((v - c.cfg.ValueMin) / span * float64(histBins))
		if b < 0 {
			b = 0
		}
		if b >= histBins {
			b = histBins - 1
		}
		h[b]++
		n++
	}
	if n > 0 {
		for i := range h {
			h[i] /= float64(n)
		}
	}
	return h
}

// sift fills h (words zeros) with the bag-of-visual-words histogram over
// the tile's detected keypoint descriptors. desc is scratch.
func (c *Computer) sift(h []float64, gr *gradients, desc []float64) {
	kps := detectKeypoints(gr.grid, gr.size, maxKeypoints)
	for _, kp := range kps {
		clear(desc)
		h[c.codebook.Assign(gr.describe(desc, kp.y, kp.x))]++
	}
	normalizeSum(h)
}

// denseSIFT fills h (4·words zeros) with descriptors computed on a dense
// grid, their quantized words pooled into 2x2 spatial quadrant histograms,
// concatenated. Unlike sift it therefore encodes *where* landmarks sit in
// the tile, which is why it matches whole images rather than local regions
// (paper §5.4.2). desc is scratch.
func (c *Computer) denseSIFT(h []float64, gr *gradients, desc []float64) {
	size := gr.size
	half := size / 2
	for y := denseStride / 2; y < size; y += denseStride {
		for x := denseStride / 2; x < size; x += denseStride {
			clear(desc)
			w := c.codebook.Assign(gr.describe(desc, y, x))
			quad := 0
			if y >= half {
				quad += 2
			}
			if x >= half {
				quad++
			}
			h[quad*words+w]++
		}
	}
	normalizeSum(h)
}

// normalizeGrid maps the tile's attribute grid into [0,1] with NaN -> 0.
// Returns nil when the attribute is missing.
func (c *Computer) normalizeGrid(t *tile.Tile) []float64 {
	g, err := t.Grid(c.cfg.Attr)
	if err != nil {
		return nil
	}
	span := c.cfg.ValueMax - c.cfg.ValueMin
	out := make([]float64, len(g))
	for i, v := range g {
		if math.IsNaN(v) {
			out[i] = 0
			continue
		}
		out[i] = clamp01((v - c.cfg.ValueMin) / span)
	}
	return out
}

func normalizeSum(h []float64) {
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	if sum == 0 {
		return
	}
	for i := range h {
		h[i] /= sum
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ChiSquared returns the Chi-Squared distance between two histogram-shaped
// vectors: ½ Σ (aᵢ−bᵢ)² / (aᵢ+bᵢ), skipping zero-mass bins. Vectors of
// different lengths compare at the shorter length (extra bins count as
// full mass difference).
func ChiSquared(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := 0.0
	for i := 0; i < n; i++ {
		s := a[i] + b[i]
		if s <= 0 {
			continue
		}
		diff := a[i] - b[i]
		d += diff * diff / s
	}
	for i := n; i < len(a); i++ {
		d += a[i]
	}
	for i := n; i < len(b); i++ {
		d += b[i]
	}
	return d / 2
}

// WeightedL2 combines per-signature distances into a single measure:
// sqrt(Σ wᵢ dᵢ²), the ℓ2weighted form of paper §4.3.3. A nil weight slice
// means equal weights of 1.
func WeightedL2(dists, weights []float64) float64 {
	sum := 0.0
	for i, d := range dists {
		w := 1.0
		if weights != nil && i < len(weights) {
			w = weights[i]
		}
		sum += w * d * d
	}
	return math.Sqrt(sum)
}
