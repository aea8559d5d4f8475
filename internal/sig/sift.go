package sig

import (
	"math"
	"sort"
)

// Simplified SIFT for data-tile heatmaps.
//
// The paper uses OpenCV's SIFT to find visual "landmarks" (clusters of
// orange snow pixels in their NDSI heatmaps) and compare them across tiles.
// This implementation keeps the parts of SIFT that matter for that use:
//
//   - a Gaussian scale space and difference-of-Gaussians (DoG) extrema
//     detector to locate blob-like landmarks at multiple scales;
//   - 4x4x8 gradient-orientation descriptors (the classic 128-d layout)
//     around each keypoint, L2-normalized with the standard 0.2 clamp.
//
// We omit sub-pixel refinement and dominant-orientation rotation: tiles are
// axis-aligned heatmaps rendered in a fixed frame, so upright descriptors
// are both sufficient and cheaper. Descriptors are quantized against a
// k-means codebook into bag-of-visual-words histograms (see sig.go).

const (
	dogScales       = 4     // gaussian images per octave
	baseSigma       = 1.2   // first gaussian sigma (tuned for small tiles)
	contrastThresh  = 0.006 // minimum |DoG| response for a keypoint
	descriptorCells = 4     // descriptor is 4x4 cells
	descriptorBins  = 8     // orientation bins per cell
	descriptorSize  = descriptorCells * descriptorCells * descriptorBins
)

type keypoint struct {
	y, x     int
	response float64
}

// gaussianKernel returns a normalized 1-D Gaussian kernel for sigma.
func gaussianKernel(sigma float64) []float64 {
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	k := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range k {
		d := float64(i - radius)
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// dogKernels are the Gaussian stack's kernels, sigma = baseSigma·√2^s for
// scale s. Built once and never written.
var dogKernels = func() (ks [dogScales][]float64) {
	sigma := baseSigma
	for s := range ks {
		ks[s] = gaussianKernel(sigma)
		sigma *= math.Sqrt2
	}
	return ks
}()

// blur applies the separable kernel k to src with edge clamping, writing
// dst and using tmp (each size x size) for the horizontal pass. Each row,
// then each column, is first gathered into a line extended by clamped
// copies of its edge cells, so every output sums its taps in kernel order
// over one contiguous window.
func blur(dst, tmp, src []float64, size int, k []float64) {
	radius := len(k) / 2
	line := make([]float64, size+2*radius)
	// pass convolves the size lines of in into out; a line starts every
	// step cells and its cells are stride apart.
	pass := func(out, in []float64, step, stride int) {
		for l := range size {
			base := l * step
			first, last := in[base], in[base+(size-1)*stride]
			for j := range radius {
				line[j], line[radius+size+j] = first, last
			}
			for j := range size {
				line[radius+j] = in[base+j*stride]
			}
			for x := range size {
				win := line[x : x+len(k)]
				acc := 0.0
				for i, w := range k {
					acc += w * win[i]
				}
				out[base+x*stride] = acc
			}
		}
	}
	pass(tmp, src, size, 1)
	pass(dst, tmp, 1, size)
}

// detectKeypoints finds up to maxKP DoG extrema in the grid (values in
// [0,1], row-major size x size), strongest responses first.
func detectKeypoints(grid []float64, size, maxKP int) []keypoint {
	if size < 8 {
		return nil
	}
	// Build the Gaussian stack in one backing, then turn it into the DoG
	// layers in place: layer s becomes gauss[s+1] − gauss[s], s ascending.
	n := size * size
	buf := make([]float64, (dogScales+1)*n)
	tmp := buf[dogScales*n:]
	gauss := make([][]float64, dogScales)
	for s := range gauss {
		gauss[s] = buf[s*n : (s+1)*n]
		blur(gauss[s], tmp, grid, size, dogKernels[s])
	}
	dog := gauss[:dogScales-1]
	for s, d := range dog {
		for i := range d {
			d[i] = gauss[s+1][i] - d[i]
		}
	}
	var kps []keypoint
	// Interior 3x3x3 extrema across the middle DoG layers.
	for s := 1; s < len(dog)-1; s++ {
		for y := 1; y < size-1; y++ {
			for x := 1; x < size-1; x++ {
				v := dog[s][y*size+x]
				if math.Abs(v) < contrastThresh {
					continue
				}
				if isExtremum(dog, size, s, y, x, v) {
					kps = append(kps, keypoint{y: y, x: x, response: math.Abs(v)})
				}
			}
		}
	}
	sort.Slice(kps, func(i, j int) bool {
		if kps[i].response != kps[j].response {
			return kps[i].response > kps[j].response
		}
		if kps[i].y != kps[j].y {
			return kps[i].y < kps[j].y
		}
		return kps[i].x < kps[j].x
	})
	if len(kps) > maxKP {
		kps = kps[:maxKP]
	}
	if len(kps) == 0 {
		// Small or low-contrast tiles can have no DoG extrema at all. Fall
		// back to five structural keypoints (center + quadrant centers) so
		// the tile still gets a non-degenerate bag-of-words fingerprint —
		// an empty histogram would make every candidate look identical.
		q := size / 4
		kps = []keypoint{
			{y: size / 2, x: size / 2},
			{y: q, x: q}, {y: q, x: 3 * q},
			{y: 3 * q, x: q}, {y: 3 * q, x: 3 * q},
		}
	}
	return kps
}

func isExtremum(dog [][]float64, size, s, y, x int, v float64) bool {
	isMax, isMin := true, true
	for ds := -1; ds <= 1; ds++ {
		layer := dog[s+ds]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if ds == 0 && dy == 0 && dx == 0 {
					continue
				}
				n := layer[(y+dy)*size+(x+dx)]
				if n >= v {
					isMax = false
				}
				if n <= v {
					isMin = false
				}
				if !isMax && !isMin {
					return false
				}
			}
		}
	}
	return isMax || isMin
}

// patchSide is the side of a descriptor's patch, centered on its keypoint.
const patchSide = 16

// patchWeights[dy+8][dx+8] is the Gaussian weight (sigma 8) of the patch
// pixel at offset (dy, dx) from the center. Built once and never written.
var patchWeights = func() (w [patchSide][patchSide]float64) {
	half := patchSide / 2
	sigma := float64(half)
	for dy := -half; dy < half; dy++ {
		for dx := -half; dx < half; dx++ {
			w[dy+half][dx+half] = math.Exp(-(float64(dy*dy) + float64(dx*dx)) / (2 * sigma * sigma))
		}
	}
	return w
}()

// gradients holds the gradient magnitude and orientation bin of each
// pixel of [−1, size]², from the edge-clamped grid: past the tile's edge
// the clamped grid is constant across the edge, so any pixel farther out
// has the gradient of the nearest one of these. One Compute or
// TrainCodebook call owns each table.
type gradients struct {
	grid []float64 // the normalized grid the table was computed from
	size int
	mag  []float64 // row-major, (size+2)², pixel (y, x) at (y+1)·(size+2) + x+1
	bin  []uint8
}

func newGradients(grid []float64, size int) *gradients {
	side := size + 2
	gr := &gradients{grid: grid, size: size, mag: make([]float64, side*side), bin: make([]uint8, side*side)}
	at := func(y, x int) float64 { return grid[min(max(y, 0), size-1)*size+min(max(x, 0), size-1)] }
	for y := -1; y <= size; y++ {
		for x := -1; x <= size; x++ {
			gy := at(y+1, x) - at(y-1, x)
			gx := at(y, x+1) - at(y, x-1)
			if gx == 0 && gy == 0 {
				continue // Hypot is 0
			}
			theta := math.Atan2(gy, gx) // [-pi, pi]
			bin := int((theta + math.Pi) / (2 * math.Pi) * descriptorBins)
			if bin >= descriptorBins {
				bin = descriptorBins - 1
			}
			i := (y+1)*side + x + 1
			gr.mag[i], gr.bin[i] = math.Hypot(gx, gy), uint8(bin)
		}
	}
	return gr
}

// describe writes into desc (descriptorSize zeros) the upright 128-d SIFT
// descriptor of the 16x16 patch centered at (cy, cx): gradient orientation
// histograms over a 4x4 cell grid, Gaussian-weighted by distance from the
// center, L2-normalized with the standard 0.2 clamp and renormalization.
func (gr *gradients) describe(desc []float64, cy, cx int) []float64 {
	const half = patchSide / 2
	const cell = patchSide / descriptorCells
	side := gr.size + 2
	var col [patchSide]int // the table column of each patch column
	for dx := range col {
		col[dx] = min(max(cx+dx-half, -1), gr.size) + 1
	}
	for dy := range patchSide {
		row := (min(max(cy+dy-half, -1), gr.size) + 1) * side
		for dx, c := range col {
			mag := gr.mag[row+c]
			if mag == 0 {
				continue
			}
			desc[(dy/cell*descriptorCells+dx/cell)*descriptorBins+int(gr.bin[row+c])] += patchWeights[dy][dx] * mag
		}
	}
	// L2 normalize, clamp at 0.2, renormalize (standard SIFT illumination
	// robustness step).
	norm := 0.0
	for _, v := range desc {
		norm += v * v
	}
	if norm == 0 {
		return desc
	}
	norm = math.Sqrt(norm)
	for i := range desc {
		desc[i] /= norm
		if desc[i] > 0.2 {
			desc[i] = 0.2
		}
	}
	norm = 0
	for _, v := range desc {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for i := range desc {
		desc[i] /= norm
	}
	return desc
}
