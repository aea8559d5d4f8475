package array

import (
	"math"
	"testing"
	"testing/quick"
)

func mkArray(t *testing.T, name string, rows, cols int, fill func(r, c int) float64) *Array {
	t.Helper()
	a := NewZero(Schema{
		Name:  name,
		Attrs: []string{"v"},
		Dims:  [2]Dim{{Name: "lat", Size: rows}, {Name: "lon", Size: cols}},
	})
	data, err := a.AttrData("v")
	if err != nil {
		t.Fatalf("AttrData: %v", err)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			data[r*cols+c] = fill(r, c)
		}
	}
	return a
}

func TestNewIsAllNaN(t *testing.T) {
	a := New(Schema{Name: "A", Attrs: []string{"x", "y"}, Dims: [2]Dim{{"r", 3}, {"c", 4}}})
	for _, attr := range []string{"x", "y"} {
		for r := 0; r < 3; r++ {
			for c := 0; c < 4; c++ {
				v, err := a.Get(attr, r, c)
				if err != nil {
					t.Fatalf("Get: %v", err)
				}
				if !math.IsNaN(v) {
					t.Fatalf("cell (%d,%d) of %s = %v, want NaN", r, c, attr, v)
				}
			}
		}
	}
}

func TestSchemaString(t *testing.T) {
	s := Schema{Name: "NDSI", Attrs: []string{"ndsi", "mask"}, Dims: [2]Dim{{"latitude", 8}, {"longitude", 16}}}
	got := s.String()
	want := "NDSI<ndsi,mask>[latitude=8,longitude=16]"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	a := New(Schema{Name: "A", Attrs: []string{"v"}, Dims: [2]Dim{{"r", 4}, {"c", 4}}})
	if err := a.Set("v", 2, 3, 7.5); err != nil {
		t.Fatalf("Set: %v", err)
	}
	v, err := a.Get("v", 2, 3)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if v != 7.5 {
		t.Errorf("Get = %v, want 7.5", v)
	}
	if _, err := a.Get("missing", 0, 0); err == nil {
		t.Error("Get on missing attribute should fail")
	}
	if err := a.Set("missing", 0, 0, 1); err == nil {
		t.Error("Set on missing attribute should fail")
	}
}

func TestRegridAvgMatchesPaperFigure3(t *testing.T) {
	// A 16x16 array regridded with aggregation parameters (2,2) must become
	// 8x8, each output cell the average of a 2x2 window.
	a := mkArray(t, "A", 16, 16, func(r, c int) float64 { return float64(r*16 + c) })
	out, err := a.Regrid(2, 2, AggAvg)
	if err != nil {
		t.Fatalf("Regrid: %v", err)
	}
	if out.Rows() != 8 || out.Cols() != 8 {
		t.Fatalf("regrid shape = %dx%d, want 8x8", out.Rows(), out.Cols())
	}
	// Window at output (0,0) covers inputs {0,1,16,17} -> mean 8.5.
	v, _ := out.Get("v", 0, 0)
	if v != 8.5 {
		t.Errorf("Regrid cell (0,0) = %v, want 8.5", v)
	}
}

func TestRegridAggregates(t *testing.T) {
	a := mkArray(t, "A", 2, 2, func(r, c int) float64 { return float64(r*2 + c + 1) }) // 1..4
	cases := []struct {
		agg  Agg
		want float64
	}{
		{AggAvg, 2.5}, {AggSum, 10}, {AggMin, 1}, {AggMax, 4}, {AggCount, 4},
	}
	for _, tc := range cases {
		out, err := a.Regrid(2, 2, tc.agg)
		if err != nil {
			t.Fatalf("Regrid(%v): %v", tc.agg, err)
		}
		v, _ := out.Get("v", 0, 0)
		if v != tc.want {
			t.Errorf("%v = %v, want %v", tc.agg, v, tc.want)
		}
	}
}

func TestRegridSkipsNaN(t *testing.T) {
	a := mkArray(t, "A", 2, 2, func(r, c int) float64 { return 4 })
	if err := a.Set("v", 0, 0, math.NaN()); err != nil {
		t.Fatal(err)
	}
	out, err := a.Regrid(2, 2, AggAvg)
	if err != nil {
		t.Fatalf("Regrid: %v", err)
	}
	v, _ := out.Get("v", 0, 0)
	if v != 4 {
		t.Errorf("avg skipping NaN = %v, want 4", v)
	}
	cnt, err := a.Regrid(2, 2, AggCount)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := cnt.Get("v", 0, 0)
	if c != 3 {
		t.Errorf("count skipping NaN = %v, want 3", c)
	}
}

func TestRegridAllNaNWindow(t *testing.T) {
	a := New(Schema{Name: "A", Attrs: []string{"v"}, Dims: [2]Dim{{"r", 2}, {"c", 2}}})
	out, err := a.Regrid(2, 2, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := out.Get("v", 0, 0)
	if !math.IsNaN(v) {
		t.Errorf("all-empty window avg = %v, want NaN", v)
	}
}

func TestRegridRejectsBadIntervals(t *testing.T) {
	a := mkArray(t, "A", 2, 2, func(r, c int) float64 { return 1 })
	if _, err := a.Regrid(0, 2, AggAvg); err == nil {
		t.Error("Regrid(0,2) should fail")
	}
}

func TestSubarrayClipsAndPads(t *testing.T) {
	a := mkArray(t, "A", 4, 4, func(r, c int) float64 { return float64(r*4 + c) })
	sub, err := a.Subarray(2, 2, 6, 6) // extends past the edge
	if err != nil {
		t.Fatalf("Subarray: %v", err)
	}
	if sub.Rows() != 4 || sub.Cols() != 4 {
		t.Fatalf("subarray shape = %dx%d, want 4x4", sub.Rows(), sub.Cols())
	}
	v, _ := sub.Get("v", 0, 0)
	if v != 10 {
		t.Errorf("sub(0,0) = %v, want 10", v)
	}
	v, _ = sub.Get("v", 3, 3)
	if !math.IsNaN(v) {
		t.Errorf("out-of-range cell = %v, want NaN padding", v)
	}
}

func TestSubarrayEmptyFails(t *testing.T) {
	a := mkArray(t, "A", 4, 4, func(r, c int) float64 { return 0 })
	if _, err := a.Subarray(2, 2, 2, 4); err == nil {
		t.Error("empty subarray should fail")
	}
}

// Property: for any array contents, regrid with (1,1) and avg is identity.
func TestRegridIdentityProperty(t *testing.T) {
	f := func(vals [16]float64) bool {
		a := mkArrayQuick(vals[:], 4, 4)
		out, err := a.Regrid(1, 1, AggAvg)
		if err != nil {
			return false
		}
		ad, _ := a.AttrData("v")
		od, _ := out.AttrData("v")
		for i := range ad {
			if ad[i] != od[i] && !(math.IsNaN(ad[i]) && math.IsNaN(od[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: regrid sum of the count aggregate is preserved under nesting:
// count(regrid 4x4) == count(regrid 2x2 then 2x2).
func TestRegridCountCompositionProperty(t *testing.T) {
	f := func(vals [64]float64, drop uint8) bool {
		vs := append([]float64(nil), vals[:]...)
		vs[int(drop)%64] = math.NaN()
		a := mkArrayQuick(vs, 8, 8)
		direct, err := a.Regrid(4, 4, AggCount)
		if err != nil {
			return false
		}
		step1, err := a.Regrid(2, 2, AggCount)
		if err != nil {
			return false
		}
		step2, err := step1.Regrid(2, 2, AggSum)
		if err != nil {
			return false
		}
		dd, _ := direct.AttrData("v")
		sd, _ := step2.AttrData("v")
		for i := range dd {
			if dd[i] != sd[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mkArrayQuick(vals []float64, rows, cols int) *Array {
	a := NewZero(Schema{Name: "Q", Attrs: []string{"v"},
		Dims: [2]Dim{{"r", rows}, {"c", cols}}})
	data, _ := a.AttrData("v")
	copy(data, vals)
	return a
}

func BenchmarkRegridAvg(b *testing.B) {
	a := NewZero(Schema{Name: "B", Attrs: []string{"v"},
		Dims: [2]Dim{{"r", 512}, {"c", 512}}})
	data, _ := a.AttrData("v")
	for i := range data {
		data[i] = float64(i % 97)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Regrid(2, 2, AggAvg); err != nil {
			b.Fatal(err)
		}
	}
}
