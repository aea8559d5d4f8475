package modis

import "math"

// Deterministic coherent noise used to synthesize reflectance fields.
// hash-based value noise with bilinear interpolation and smoothstep easing,
// combined into fractal Brownian motion (fbm) and a ridged variant for
// mountainous terrain. Everything is a pure function of (seed, x, y) so the
// dataset is reproducible bit-for-bit.

// hash2 maps lattice coordinates and a seed to a pseudo-random float in [0,1).
func hash2(ix, iy int64, seed int64) float64 {
	h := uint64(ix)*0x9E3779B185EBCA87 ^ uint64(iy)*0xC2B2AE3D27D4EB4F ^ uint64(seed)*0x165667B19E3779F9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}

func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// valueNoise evaluates single-octave value noise at (x, y) in lattice units.
func valueNoise(x, y float64, seed int64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	ix, iy := int64(x0), int64(y0)
	fx, fy := smoothstep(x-x0), smoothstep(y-y0)
	v00 := hash2(ix, iy, seed)
	v10 := hash2(ix+1, iy, seed)
	v01 := hash2(ix, iy+1, seed)
	v11 := hash2(ix+1, iy+1, seed)
	top := v00 + (v10-v00)*fx
	bot := v01 + (v11-v01)*fx
	return top + (bot-top)*fy
}

// fbm sums octaves of value noise, normalized to [0,1].
func fbm(x, y float64, seed int64, octaves int, lacunarity, gain float64) float64 {
	sum, amp, norm := 0.0, 1.0, 0.0
	freq := 1.0
	for o := 0; o < octaves; o++ {
		sum += amp * valueNoise(x*freq, y*freq, seed+int64(o)*1315423911)
		norm += amp
		amp *= gain
		freq *= lacunarity
	}
	return sum / norm
}

// ridged produces ridge-like fractal noise in [0,1]: sharp crests where the
// underlying noise crosses 0.5, which reads as mountain ridgelines.
func ridged(x, y float64, seed int64, octaves int) float64 {
	sum, amp, norm := 0.0, 1.0, 0.0
	freq := 1.0
	for o := 0; o < octaves; o++ {
		v := valueNoise(x*freq, y*freq, seed+int64(o)*2654435761)
		r := 1 - math.Abs(2*v-1) // fold around the midline
		sum += amp * r * r
		norm += amp
		amp *= 0.5
		freq *= 2.1
	}
	return sum / norm
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

// segDist returns the distance from point p to the segment a-b, with all
// points given as (row, col) pairs in normalized [0,1] coordinates.
func segDist(pr, pc, ar, ac, br, bc float64) float64 {
	return math.Hypot(segOffset(pr, pc, ar, ac, br, bc))
}

// segDist2 is segDist squared, without the Hypot: a cheap bound check that
// agrees with segDist to within rounding.
func segDist2(pr, pc, ar, ac, br, bc float64) float64 {
	er, ec := segOffset(pr, pc, ar, ac, br, bc)
	return er*er + ec*ec
}

// segOffset returns p minus the point of segment a-b nearest to it.
func segOffset(pr, pc, ar, ac, br, bc float64) (float64, float64) {
	dr, dc := br-ar, bc-ac
	l2 := dr*dr + dc*dc
	if l2 == 0 {
		return pr - ar, pc - ac
	}
	t := ((pr-ar)*dr + (pc-ac)*dc) / l2
	t = clamp01(t)
	return pr - (ar + t*dr), pc - (ac + t*dc)
}
