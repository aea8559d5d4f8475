package modis

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"forecache/internal/array"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(42, 64)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	av, _ := a.VIS[0].AttrData("reflectance")
	bv, _ := b.VIS[0].AttrData("reflectance")
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("cell %d differs across runs: %v vs %v", i, av[i], bv[i])
		}
	}
}

func TestGenerateSeedChangesField(t *testing.T) {
	a, err := Generate(DefaultConfig(1, 32))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(2, 32))
	if err != nil {
		t.Fatal(err)
	}
	av, _ := a.VIS[0].AttrData("reflectance")
	bv, _ := b.VIS[0].AttrData("reflectance")
	same := 0
	for i := range av {
		if av[i] == bv[i] {
			same++
		}
	}
	if same == len(av) {
		t.Error("different seeds produced identical fields")
	}
}

func TestGenerateRejectsBadSize(t *testing.T) {
	if _, err := Generate(Config{Size: 0}); err == nil {
		t.Error("Generate with size 0 should fail")
	}
}

func TestReflectanceInRange(t *testing.T) {
	ds, err := Generate(DefaultConfig(7, 64))
	if err != nil {
		t.Fatal(err)
	}
	for day := range ds.VIS {
		for _, arr := range []*array.Array{ds.VIS[day], ds.SWIR[day]} {
			data, _ := arr.AttrData("reflectance")
			for i, v := range data {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("day %d cell %d reflectance %v out of [0,1]", day, i, v)
				}
			}
		}
	}
}

func TestBuildNDSIShapeAndAttrs(t *testing.T) {
	ndsi, err := BuildWorld(5, 64)
	if err != nil {
		t.Fatalf("BuildWorld: %v", err)
	}
	want := []string{"ndsi_avg", "ndsi_min", "ndsi_max", "mask"}
	got := ndsi.Schema().Attrs
	if len(got) != len(want) {
		t.Fatalf("attrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attrs = %v, want %v", got, want)
		}
	}
	if ndsi.Rows() != 64 || ndsi.Cols() != 64 {
		t.Errorf("shape = %dx%d, want 64x64", ndsi.Rows(), ndsi.Cols())
	}
}

func TestNDSIBoundsAndOrdering(t *testing.T) {
	ndsi, err := BuildWorld(11, 96)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := ndsi.AttrData("ndsi_avg")
	mn, _ := ndsi.AttrData("ndsi_min")
	mx, _ := ndsi.AttrData("ndsi_max")
	for i := range avg {
		if math.IsNaN(avg[i]) {
			continue
		}
		if avg[i] < -1-1e-9 || avg[i] > 1+1e-9 {
			t.Fatalf("ndsi_avg[%d] = %v outside [-1,1]", i, avg[i])
		}
		if !(mn[i] <= avg[i]+1e-12 && avg[i] <= mx[i]+1e-12) {
			t.Fatalf("ordering violated at %d: min=%v avg=%v max=%v", i, mn[i], avg[i], mx[i])
		}
	}
}

func TestMountainRangesAreSnowy(t *testing.T) {
	size := 128
	ndsi, err := BuildWorld(3, size)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := ndsi.AttrData("ndsi_avg")

	meanOver := func(r0, c0, r1, c1 float64) float64 {
		sum, n := 0.0, 0
		for r := int(r0 * float64(size)); r < int(r1*float64(size)); r++ {
			for c := int(c0 * float64(size)); c < int(c1*float64(size)); c++ {
				v := avg[r*size+c]
				if !math.IsNaN(v) {
					sum += v
					n++
				}
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}

	for _, rg := range DefaultConfig(3, size).Ranges[:3] { // rockies, alps, andes
		cr, cc := (rg.R0+rg.R1)/2, (rg.C0+rg.C1)/2
		w := rg.Width
		core := meanOver(cr-w, cc-w, cr+w, cc+w)
		// A lowland patch on the same continent but away from any range.
		lowland := meanOver(0.50, 0.52, 0.54, 0.56) // central Africa: land, no range
		if !(core > lowland) {
			t.Errorf("%s core NDSI %.3f should exceed lowland %.3f", rg.Name, core, lowland)
		}
		if core < 0 {
			t.Errorf("%s core NDSI %.3f should be positive (snowy)", rg.Name, core)
		}
	}
}

func TestOceanHasNegativeNDSIAndMaskZero(t *testing.T) {
	size := 96
	ndsi, err := BuildWorld(9, size)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := ndsi.AttrData("ndsi_avg")
	mask, _ := ndsi.AttrData("mask")
	// Mid-Pacific analogue: far from every continent ellipse.
	r, c := int(0.5*float64(size)), int(0.02*float64(size))
	i := r*size + c
	if mask[i] != 0 {
		t.Fatalf("open-ocean mask = %v, want 0", mask[i])
	}
	if avg[i] >= 0 {
		t.Errorf("ocean NDSI = %v, want negative", avg[i])
	}
	// Mask must be binary everywhere.
	for i, m := range mask {
		if m != 0 && m != 1 {
			t.Fatalf("mask[%d] = %v, want 0 or 1", i, m)
		}
	}
}

func TestBuildNDSIRejectsBadDays(t *testing.T) {
	if _, err := BuildNDSI(&Dataset{}); err == nil {
		t.Error("BuildNDSI on a dataset with no days should fail")
	}
}

// TestBuildNDSIMatchesQuery1 holds BuildNDSI to what Query 1 plus the fold
// meant when they ran through the array engine: apply's empty-in,
// empty-out rule per day, then avg/min/max over the days that have a value.
func TestBuildNDSIMatchesQuery1(t *testing.T) {
	nan := math.NaN()
	grid := func(attr string, vals ...float64) *array.Array {
		a := array.NewZero(array.Schema{Name: attr, Attrs: []string{attr},
			Dims: [2]array.Dim{{Name: "latitude", Size: 2}, {Name: "longitude", Size: 2}}})
		data, _ := a.AttrData(attr)
		copy(data, vals)
		return a
	}
	ds := &Dataset{
		// Cell 1 has no VIS on day 0; cell 3 has no SWIR on day 0 and no
		// VIS on day 1, so no day at all.
		VIS:  []*array.Array{grid("reflectance", 0.8, nan, 0.3, 0.4), grid("reflectance", 0.6, 0.5, 0.1, nan)},
		SWIR: []*array.Array{grid("reflectance", 0.1, 0.2, 0.3, nan), grid("reflectance", 0.2, 0.5, 0.7, 0.1)},
		Mask: grid("mask", 1, 0, 1, 0),
	}
	got, err := BuildNDSI(ds)
	if err != nil {
		t.Fatal(err)
	}
	days := [][]float64{
		{NDSI(0.8, 0.1), NDSI(0.6, 0.2)},
		{NDSI(0.5, 0.5)},
		{NDSI(0.3, 0.3), NDSI(0.1, 0.7)},
		nil,
	}
	avg, _ := got.AttrData("ndsi_avg")
	mn, _ := got.AttrData("ndsi_min")
	mx, _ := got.AttrData("ndsi_max")
	mask, _ := got.AttrData("mask")
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for c, vs := range days {
		wantAvg, wantMin, wantMax := nan, nan, nan
		if len(vs) > 0 {
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			wantAvg, wantMin, wantMax = sum/float64(len(vs)), slices.Min(vs), slices.Max(vs)
		}
		if !same(avg[c], wantAvg) || !same(mn[c], wantMin) || !same(mx[c], wantMax) {
			t.Errorf("cell %d: avg/min/max = %v/%v/%v, want %v/%v/%v", c, avg[c], mn[c], mx[c], wantAvg, wantMin, wantMax)
		}
	}
	if !slices.Equal(mask, []float64{1, 0, 1, 0}) {
		t.Errorf("mask = %v, want it copied", mask)
	}
}

// TestBuildWorldDigest pins every cell of the NDSI worlds the golden
// (seed 42, 128) and the benchmark (seed 7, 512) are built on, to the bit:
// the golden prints rounded accuracies, so an ulp of drift could pass it.
// The constants were recorded with the array-engine pipeline before it was
// replaced by BuildNDSI.
func TestBuildWorldDigest(t *testing.T) {
	for _, w := range []struct {
		seed int64
		size int
		want uint64
	}{{42, 128, 0xcdae5f169b2da977}, {7, 512, 0x590c1222f47000f4}} {
		ndsi, err := BuildWorld(w.seed, w.size)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, attr := range []string{"ndsi_avg", "ndsi_min", "ndsi_max", "mask"} {
			data, _ := ndsi.AttrData(attr)
			for _, v := range data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != w.want {
			t.Errorf("BuildWorld(%d, %d) digest = %#x, want %#x", w.seed, w.size, got, w.want)
		}
	}
}

func TestNDSIFuncProperties(t *testing.T) {
	if got := NDSI(0, 0); got != 0 {
		t.Errorf("NDSI(0,0) = %v, want 0 (guarded division)", got)
	}
	f := func(vis, swir float64) bool {
		vis, swir = math.Abs(vis), math.Abs(swir)
		if vis+swir == 0 {
			return NDSI(vis, swir) == 0
		}
		v := NDSI(vis, swir)
		return v >= -1-1e-9 && v <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Snowy pixel (bright VIS, dark SWIR) must score higher than bare rock.
	snow := NDSI(0.8, 0.05)
	rock := NDSI(0.2, 0.5)
	if snow <= rock {
		t.Errorf("snow NDSI %v should exceed rock %v", snow, rock)
	}
}

func TestStudyRegionsCoverRanges(t *testing.T) {
	regions := StudyRegions()
	cfg := DefaultConfig(0, 64)
	contains := func(box [4]float64, pr, pc float64) bool {
		return pr >= box[0] && pr <= box[2] && pc >= box[1] && pc <= box[3]
	}
	checks := []struct {
		region string
		rng    string
	}{
		{"task1-us", "rockies"},
		{"task2-europe", "alps"},
		{"task3-south-america", "andes"},
	}
	for _, chk := range checks {
		box, ok := regions[chk.region]
		if !ok {
			t.Fatalf("missing region %q", chk.region)
		}
		found := false
		for _, rg := range cfg.Ranges {
			if rg.Name == chk.rng {
				mr, mc := (rg.R0+rg.R1)/2, (rg.C0+rg.C1)/2
				found = contains(box, mr, mc)
			}
		}
		if !found {
			t.Errorf("region %q does not contain range %q midpoint", chk.region, chk.rng)
		}
	}
}

func BenchmarkGenerate128(b *testing.B) {
	cfg := DefaultConfig(1, 128)
	cfg.Days = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
