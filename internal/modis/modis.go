// Package modis synthesizes a NASA-MODIS-like satellite imagery dataset and
// computes the NDSI snow index over it, standing in for the 10 TB MODIS
// archive used in the paper's user study.
//
// The paper's experiments depend on two properties of the data, both of
// which the generator reproduces:
//
//  1. High-NDSI (snow) pixels cluster along mountain ranges — the study's
//     regions of interest were the Rocky Mountains (Task 1), the Swiss Alps
//     (Task 2) and the Andes (Task 3). The generator lays ridged-noise
//     mountain masses along configurable ridgelines at analogous positions.
//  2. Tiles along a zoom path into a range share visual features across
//     zoom levels (multi-scale self-similarity), which fractal noise gives
//     us for free.
//
// The raw data is produced as two reflectance arrays, SVIS (visible light)
// and SSWIR (short-wave infrared), exactly the two MODIS bands the NDSI
// needs. NDSI = (VIS − SWIR) / (VIS + SWIR), computed cell-wise as the
// paper's Query 1 does in SciDB. Like the study dataset, the result carries
// four attributes: average, minimum, and maximum NDSI over the simulated
// one-week window, plus a land/sea mask.
package modis

import (
	"fmt"
	"math"

	"forecache/internal/array"
)

// Range describes one synthetic mountain range: a ridgeline segment in
// normalized (row, col) coordinates plus a half-width, also normalized.
type Range struct {
	Name           string
	R0, C0, R1, C1 float64 // ridgeline endpoints, fractions of the grid
	Width          float64 // Gaussian half-width, fraction of the grid
	SnowLine       float64 // elevation above which snow persists, 0..1
}

// Continent is an elliptical landmass in normalized coordinates.
type Continent struct {
	Name    string
	CenterR float64
	CenterC float64
	RadiusR float64
	RadiusC float64
}

// Config controls dataset synthesis. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	Seed int64
	Size int // raw grid is Size x Size cells
	Days int // simulated days in the observation window (>=1)

	Ranges     []Range
	Continents []Continent
}

// DefaultConfig returns the world used throughout the experiments: three
// primary mountain ranges at positions analogous to the study's Rockies,
// Alps and Andes, two distractor ranges, and six continental landmasses.
func DefaultConfig(seed int64, size int) Config {
	return Config{
		Seed: seed,
		Size: size,
		Days: 3,
		Ranges: []Range{
			{Name: "rockies", R0: 0.22, C0: 0.14, R1: 0.40, C1: 0.21, Width: 0.045, SnowLine: 0.42},
			{Name: "alps", R0: 0.285, C0: 0.515, R1: 0.305, C1: 0.565, Width: 0.028, SnowLine: 0.48},
			{Name: "andes", R0: 0.58, C0: 0.305, R1: 0.82, C1: 0.285, Width: 0.030, SnowLine: 0.45},
			{Name: "himalaya", R0: 0.33, C0: 0.70, R1: 0.36, C1: 0.78, Width: 0.035, SnowLine: 0.40},
			{Name: "caucasus", R0: 0.30, C0: 0.60, R1: 0.315, C1: 0.64, Width: 0.02, SnowLine: 0.55},
		},
		Continents: []Continent{
			{Name: "north-america", CenterR: 0.28, CenterC: 0.20, RadiusR: 0.17, RadiusC: 0.16},
			{Name: "south-america", CenterR: 0.68, CenterC: 0.32, RadiusR: 0.18, RadiusC: 0.10},
			{Name: "europe", CenterR: 0.27, CenterC: 0.54, RadiusR: 0.09, RadiusC: 0.08},
			{Name: "africa", CenterR: 0.52, CenterC: 0.55, RadiusR: 0.16, RadiusC: 0.11},
			{Name: "asia", CenterR: 0.30, CenterC: 0.72, RadiusR: 0.14, RadiusC: 0.17},
			{Name: "australia", CenterR: 0.72, CenterC: 0.82, RadiusR: 0.08, RadiusC: 0.09},
		},
	}
}

// Dataset holds the synthesized raw band arrays for one day window plus the
// static land/sea mask.
type Dataset struct {
	Config Config
	// VIS[d] and SWIR[d] are the band arrays for day d.
	VIS  []*array.Array
	SWIR []*array.Array
	Mask *array.Array // 1 = land, 0 = sea
}

// Generate synthesizes the raw reflectance bands.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("modis: size must be positive, got %d", cfg.Size)
	}
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	ds := &Dataset{Config: cfg}
	n := cfg.Size

	mkSchema := func(name string) array.Schema {
		return array.Schema{
			Name:  name,
			Attrs: []string{"reflectance"},
			Dims: [2]array.Dim{
				{Name: "latitude", Size: n},
				{Name: "longitude", Size: n},
			},
		}
	}
	ds.Mask = array.NewZero(array.Schema{
		Name:  "MASK",
		Attrs: []string{"mask"},
		Dims: [2]array.Dim{
			{Name: "latitude", Size: n},
			{Name: "longitude", Size: n},
		},
	})
	maskData, err := ds.Mask.AttrData("mask")
	if err != nil {
		return nil, err
	}

	// Static per-cell fields: land mask, elevation, base snow probability.
	elev := make([]float64, n*n)
	for r := 0; r < n; r++ {
		pr := (float64(r) + 0.5) / float64(n)
		for c := 0; c < n; c++ {
			pc := (float64(c) + 0.5) / float64(n)
			i := r*n + c
			if cfg.isLand(pr, pc) {
				maskData[i] = 1
			}
			elev[i] = cfg.elevation(pr, pc)
		}
	}

	for day := 0; day < cfg.Days; day++ {
		vis := array.NewZero(mkSchema(fmt.Sprintf("SVIS_day%d", day)))
		swir := array.NewZero(mkSchema(fmt.Sprintf("SSWIR_day%d", day)))
		visData, err := vis.AttrData("reflectance")
		if err != nil {
			return nil, err
		}
		swirData, err := swir.AttrData("reflectance")
		if err != nil {
			return nil, err
		}
		daySeed := cfg.Seed + int64(day+1)*7919
		for r := 0; r < n; r++ {
			pr := (float64(r) + 0.5) / float64(n)
			for c := 0; c < n; c++ {
				pc := (float64(c) + 0.5) / float64(n)
				i := r*n + c
				if maskData[i] == 0 {
					// Ocean: dark in VIS, moderately bright in SWIR -> NDSI well
					// below zero. The study filtered these with the mask.
					visData[i] = 0.04 + 0.02*fbm(pc*40, pr*40, daySeed+11, 2, 2, 0.5)
					swirData[i] = 0.10 + 0.03*fbm(pc*40, pr*40, daySeed+13, 2, 2, 0.5)
					continue
				}
				snow := cfg.snowCover(pr, pc, elev[i], daySeed)
				// Snow is bright in the visible band and dark in short-wave
				// infrared; bare land is the reverse (Rittger et al.).
				visNoise := 0.05 * (fbm(pc*90, pr*90, daySeed+17, 3, 2.2, 0.5) - 0.5)
				swirNoise := 0.04 * (fbm(pc*90, pr*90, daySeed+19, 3, 2.2, 0.5) - 0.5)
				visData[i] = clamp01(0.18 + 0.62*snow + visNoise)
				swirData[i] = clamp01(0.42 - 0.36*snow + swirNoise)
			}
		}
		ds.VIS = append(ds.VIS, vis)
		ds.SWIR = append(ds.SWIR, swir)
	}
	return ds, nil
}

// isLand reports whether normalized point (pr, pc) is on a continent. The
// coastline is roughened with low-frequency noise.
func (cfg Config) isLand(pr, pc float64) bool {
	for _, ct := range cfg.Continents {
		dr := (pr - ct.CenterR) / ct.RadiusR
		dc := (pc - ct.CenterC) / ct.RadiusC
		d := dr*dr + dc*dc
		edge := 1 + 0.35*(fbm(pc*12, pr*12, cfg.Seed+int64(len(ct.Name)), 3, 2, 0.5)-0.5)
		if d < edge {
			return true
		}
	}
	return false
}

// elevation returns terrain height in [0,1]: ridged noise shaped by the
// distance to the nearest mountain ridgeline, plus gentle continental
// relief so lowlands are not perfectly flat.
func (cfg Config) elevation(pr, pc float64) float64 {
	base := 0.12 * fbm(pc*6, pr*6, cfg.Seed+101, 3, 2, 0.5)
	best := 0.0
	for ri, rg := range cfg.Ranges {
		d := segDist(pr, pc, rg.R0, rg.C0, rg.R1, rg.C1)
		mass := math.Exp(-(d * d) / (2 * rg.Width * rg.Width))
		if mass < 1e-4 {
			continue
		}
		relief := 0.55 + 0.45*ridged(pc*48, pr*48, cfg.Seed+int64(ri+1)*31337, 4)
		if v := mass * relief; v > best {
			best = v
		}
	}
	return clamp01(base + best)
}

// snowCover maps elevation and day-varying weather noise to snow fraction.
func (cfg Config) snowCover(pr, pc, elev float64, daySeed int64) float64 {
	// Latitude term: polar margins accumulate snow regardless of elevation,
	// matching the bright caps visible in real MODIS NDSI composites.
	polar := 0.0
	if pr < 0.09 {
		polar = (0.09 - pr) / 0.09
	} else if pr > 0.93 {
		polar = (pr - 0.93) / 0.07
	}
	weather := 0.12 * (fbm(pc*25, pr*25, daySeed+23, 3, 2, 0.5) - 0.5)
	snowLine := 0.45
	for _, rg := range cfg.Ranges {
		d := segDist(pr, pc, rg.R0, rg.C0, rg.R1, rg.C1)
		if d < rg.Width*3 {
			snowLine = rg.SnowLine
			break
		}
	}
	s := (elev-snowLine)/0.18 + weather + polar*1.5
	return clamp01(s)
}

// NDSI is the Normalized Difference Snow Index:
// (visible − short-wave infrared) / (visible + short-wave infrared).
func NDSI(vis, swir float64) float64 {
	den := vis + swir
	if den == 0 {
		return 0
	}
	return (vis - swir) / den
}

// BuildNDSI computes the paper's Query 1 once per simulated day,
//
//	store(apply(join(SVIS_day<d>, SSWIR_day<d>), ndsi,
//	      ndsi_func(SVIS_day<d>.reflectance, SSWIR_day<d>.reflectance)), NDSI_day<d>)
//
// and folds the per-day values into one array with the study dataset's four
// attributes: ndsi_avg, ndsi_min, ndsi_max and mask. As in SciDB's apply, a
// NaN (empty) band cell yields an empty NDSI cell, which the fold skips; a
// cell empty on every day is NaN in all three aggregates.
func BuildNDSI(ds *Dataset) (*array.Array, error) {
	days := len(ds.VIS)
	if days == 0 || len(ds.SWIR) != days || ds.Mask == nil {
		return nil, fmt.Errorf("modis: NDSI needs a mask and VIS and SWIR bands for ≥ 1 day, got %d VIS / %d SWIR days", days, len(ds.SWIR))
	}
	n0, n1 := ds.Mask.Rows(), ds.Mask.Cols()
	srcMask, err := ds.Mask.AttrData("mask")
	if err != nil {
		return nil, err
	}
	vis := make([][]float64, days)
	swir := make([][]float64, days)
	for d := range days {
		if ds.VIS[d].Rows() != n0 || ds.VIS[d].Cols() != n1 || ds.SWIR[d].Rows() != n0 || ds.SWIR[d].Cols() != n1 {
			return nil, fmt.Errorf("modis: day %d shape mismatch", d)
		}
		if vis[d], err = ds.VIS[d].AttrData("reflectance"); err != nil {
			return nil, err
		}
		if swir[d], err = ds.SWIR[d].AttrData("reflectance"); err != nil {
			return nil, err
		}
	}
	result := array.NewZero(array.Schema{
		Name:  "NDSI",
		Attrs: []string{"ndsi_avg", "ndsi_min", "ndsi_max", "mask"},
		Dims: [2]array.Dim{
			{Name: "latitude", Size: n0},
			{Name: "longitude", Size: n1},
		},
	})
	avg, _ := result.AttrData("ndsi_avg")
	mn, _ := result.AttrData("ndsi_min")
	mx, _ := result.AttrData("ndsi_max")
	outMask, _ := result.AttrData("mask")
	for c := range n0 * n1 {
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		cnt := 0
		for d := range days {
			v := NDSI(vis[d][c], swir[d][c]) // NaN in, NaN out
			if math.IsNaN(v) {
				continue
			}
			cnt++
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if cnt == 0 {
			avg[c], mn[c], mx[c] = math.NaN(), math.NaN(), math.NaN()
		} else {
			avg[c], mn[c], mx[c] = sum/float64(cnt), lo, hi
		}
		outMask[c] = srcMask[c]
	}
	return result, nil
}

// BuildWorld is the one-call convenience used by examples and experiments:
// it generates the dataset and materializes the NDSI array. The raw bands
// are garbage once it returns.
func BuildWorld(seed int64, size int) (*array.Array, error) {
	ds, err := Generate(DefaultConfig(seed, size))
	if err != nil {
		return nil, err
	}
	return BuildNDSI(ds)
}

// StudyRegions exposes the three task regions (normalized bounding boxes)
// corresponding to the paper's browsing tasks, so the study simulator and
// examples can aim users at the right parts of the world.
func StudyRegions() map[string][4]float64 {
	return map[string][4]float64{
		// r0, c0, r1, c1 fractions: region the task text names.
		"task1-us":            {0.16, 0.08, 0.46, 0.30}, // continental United States
		"task2-europe":        {0.22, 0.48, 0.38, 0.62}, // western Europe
		"task3-south-america": {0.52, 0.24, 0.88, 0.40},
	}
}
