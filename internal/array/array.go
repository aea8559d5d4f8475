// Package array implements a small, SciDB-like dense array engine.
//
// ForeCache (the paper this repository reproduces) uses SciDB as its back-end
// DBMS: multi-attribute dense arrays addressed by integer dimensions, with
// windowed aggregation to build zoom levels. This package implements the
// part of that surface the tile pyramid builder uses:
//
//   - multi-attribute dense 2-D arrays with named dimensions
//   - windowed Regrid aggregation (avg, sum, min, max, count)
//   - Subarray slicing
//
// The paper's Query 1 (NDSI through join and apply) is one fixed
// computation and lives in internal/modis as a plain function.
//
// Cells hold float64 values; NaN marks an empty cell and is skipped by
// aggregates, matching SciDB's treatment of empty cells.
package array

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoAttr reports a reference to an attribute that does not exist.
var ErrNoAttr = errors.New("array: no such attribute")

// Dim describes one array dimension: a name and its extent in cells.
type Dim struct {
	Name string
	Size int
}

// Schema describes an array: its name, attributes and two dimensions.
// Dimension 0 is the slower-varying (row / latitude) axis and dimension 1
// the faster-varying (column / longitude) axis; storage is row-major.
type Schema struct {
	Name  string
	Attrs []string
	Dims  [2]Dim
}

// String renders the schema in SciDB's conventional form, e.g.
// "NDSI<ndsi,mask>[latitude=1024,longitude=1024]".
func (s Schema) String() string {
	attrs := ""
	for i, a := range s.Attrs {
		if i > 0 {
			attrs += ","
		}
		attrs += a
	}
	return fmt.Sprintf("%s<%s>[%s=%d,%s=%d]",
		s.Name, attrs, s.Dims[0].Name, s.Dims[0].Size, s.Dims[1].Name, s.Dims[1].Size)
}

// Rows returns the extent of dimension 0.
func (s Schema) Rows() int { return s.Dims[0].Size }

// Cols returns the extent of dimension 1.
func (s Schema) Cols() int { return s.Dims[1].Size }

// AttrIndex returns the position of attribute name, or -1 if absent.
func (s Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// Array is a dense two-dimensional, multi-attribute array. Each attribute is
// stored as a contiguous row-major float64 slice. The zero value is not
// usable; construct arrays with New.
type Array struct {
	schema Schema
	data   [][]float64 // data[attr][row*cols+col]
}

// New returns an empty (all-NaN) array with the given schema.
func New(schema Schema) *Array {
	n := schema.Rows() * schema.Cols()
	data := make([][]float64, len(schema.Attrs))
	for i := range data {
		col := make([]float64, n)
		for j := range col {
			col[j] = math.NaN()
		}
		data[i] = col
	}
	return &Array{schema: schema, data: data}
}

// NewZero returns an array with every cell of every attribute set to zero,
// which is convenient for bulk loads that will overwrite all cells anyway.
func NewZero(schema Schema) *Array {
	n := schema.Rows() * schema.Cols()
	data := make([][]float64, len(schema.Attrs))
	for i := range data {
		data[i] = make([]float64, n)
	}
	return &Array{schema: schema, data: data}
}

// Schema returns the array's schema.
func (a *Array) Schema() Schema { return a.schema }

// Rows returns the extent of dimension 0.
func (a *Array) Rows() int { return a.schema.Rows() }

// Cols returns the extent of dimension 1.
func (a *Array) Cols() int { return a.schema.Cols() }

// Get returns the value of attribute attr at (row, col). It panics if the
// coordinates are out of range and returns an error only for unknown
// attributes, mirroring slice indexing semantics for the hot path.
func (a *Array) Get(attr string, row, col int) (float64, error) {
	i := a.schema.AttrIndex(attr)
	if i < 0 {
		return 0, fmt.Errorf("%w: %q in %s", ErrNoAttr, attr, a.schema.Name)
	}
	return a.data[i][row*a.Cols()+col], nil
}

// Set assigns the value of attribute attr at (row, col).
func (a *Array) Set(attr string, row, col int, v float64) error {
	i := a.schema.AttrIndex(attr)
	if i < 0 {
		return fmt.Errorf("%w: %q in %s", ErrNoAttr, attr, a.schema.Name)
	}
	a.data[i][row*a.Cols()+col] = v
	return nil
}

// AttrData returns the raw row-major backing slice for an attribute. The
// caller must not resize it; mutating cells through it is allowed and is the
// fast path used by bulk loaders.
func (a *Array) AttrData(attr string) ([]float64, error) {
	i := a.schema.AttrIndex(attr)
	if i < 0 {
		return nil, fmt.Errorf("%w: %q in %s", ErrNoAttr, attr, a.schema.Name)
	}
	return a.data[i], nil
}
