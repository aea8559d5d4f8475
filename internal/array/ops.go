package array

import (
	"fmt"
	"math"
)

// Agg identifies a windowed aggregation function for Regrid.
type Agg int

// Supported aggregation functions.
const (
	AggAvg Agg = iota
	AggSum
	AggMin
	AggMax
	AggCount
)

// Regrid aggregates non-overlapping j0 x j1 windows of every attribute into
// single cells, producing an array of size ceil(rows/j0) x ceil(cols/j1).
// This is the paper's materialized-view builder: aggregation parameters
// (j0, j1) control how much detail the resulting zoom level retains
// (Figure 3 shows a 16x16 array regridded with (2,2) into 8x8). NaN cells
// are treated as empty and excluded; a window with no valid cells yields NaN
// (0 for count).
func (a *Array) Regrid(j0, j1 int, agg Agg) (*Array, error) {
	if j0 <= 0 || j1 <= 0 {
		return nil, fmt.Errorf("array: regrid intervals must be positive, got (%d,%d)", j0, j1)
	}
	outRows := (a.Rows() + j0 - 1) / j0
	outCols := (a.Cols() + j1 - 1) / j1
	out := &Array{
		schema: Schema{
			Name:  a.schema.Name,
			Attrs: append([]string(nil), a.schema.Attrs...),
			Dims: [2]Dim{
				{Name: a.schema.Dims[0].Name, Size: outRows},
				{Name: a.schema.Dims[1].Name, Size: outCols},
			},
		},
		data: make([][]float64, len(a.data)),
	}
	for ai, src := range a.data {
		dst := make([]float64, outRows*outCols)
		for or := 0; or < outRows; or++ {
			r0, r1 := or*j0, min((or+1)*j0, a.Rows())
			for oc := 0; oc < outCols; oc++ {
				c0, c1 := oc*j1, min((oc+1)*j1, a.Cols())
				dst[or*outCols+oc] = aggregateWindow(src, a.Cols(), r0, r1, c0, c1, agg)
			}
		}
		out.data[ai] = dst
	}
	return out, nil
}

func aggregateWindow(src []float64, cols, r0, r1, c0, c1 int, agg Agg) float64 {
	var sum, mn, mx float64
	mn, mx = math.Inf(1), math.Inf(-1)
	n := 0
	for r := r0; r < r1; r++ {
		base := r * cols
		for c := c0; c < c1; c++ {
			v := src[base+c]
			if math.IsNaN(v) {
				continue
			}
			n++
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
	}
	if agg == AggCount {
		return float64(n)
	}
	if n == 0 {
		return math.NaN()
	}
	switch agg {
	case AggAvg:
		return sum / float64(n)
	case AggSum:
		return sum
	case AggMin:
		return mn
	case AggMax:
		return mx
	}
	return math.NaN()
}

// Subarray returns the rectangular region [r0,r1) x [c0,c1) as a new array.
// Regions extending past the array edge are clipped; the result keeps the
// requested size with NaN padding so tiles at dataset borders stay uniform.
func (a *Array) Subarray(r0, c0, r1, c1 int) (*Array, error) {
	if r1 <= r0 || c1 <= c0 {
		return nil, fmt.Errorf("array: empty subarray [%d,%d)x[%d,%d)", r0, r1, c0, c1)
	}
	rows, cols := r1-r0, c1-c0
	out := New(Schema{
		Name:  a.schema.Name,
		Attrs: append([]string(nil), a.schema.Attrs...),
		Dims: [2]Dim{
			{Name: a.schema.Dims[0].Name, Size: rows},
			{Name: a.schema.Dims[1].Name, Size: cols},
		},
	})
	for ai := range a.data {
		src, dst := a.data[ai], out.data[ai]
		for r := 0; r < rows; r++ {
			sr := r0 + r
			if sr < 0 || sr >= a.Rows() {
				continue
			}
			for c := 0; c < cols; c++ {
				sc := c0 + c
				if sc < 0 || sc >= a.Cols() {
					continue
				}
				dst[r*cols+c] = src[sr*a.Cols()+sc]
			}
		}
	}
	return out, nil
}
