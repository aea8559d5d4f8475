package array

import (
	"strings"
	"testing"
)

// fuzzDB builds a tiny database with two joinable arrays and a UDF, enough
// surface for every AFL operator to execute, not just parse.
func fuzzDB() *Database {
	db := NewDatabase()
	mk := func(name string) *Array {
		a := NewZero(Schema{Name: name, Attrs: []string{"v"},
			Dims: [2]Dim{{Name: "r", Size: 4}, {Name: "c", Size: 4}}})
		data, _ := a.AttrData("v")
		for i := range data {
			data[i] = float64(i)
		}
		return a
	}
	db.Store("A", mk("A"))
	db.Store("B", mk("B"))
	db.RegisterUDF("f", func(args []float64) float64 {
		s := 0.0
		for _, v := range args {
			s += v
		}
		return s
	})
	return db
}

// TestQueryDepthLimit is the regression test for the unbounded
// recursive-descent parser: a 10k-deep nesting used to grow one goroutine
// stack frame per level (risking stack exhaustion on deeper inputs); it
// must now fail fast with a parse error, and legitimate nesting below the
// cap must still parse.
func TestQueryDepthLimit(t *testing.T) {
	db := fuzzDB()
	deep := strings.Repeat("join(", 10_000) + "A"
	if _, err := db.Query(deep); err == nil {
		t.Fatal("10k-deep nesting should be rejected")
	} else if !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("10k-deep nesting failed with %v, want the depth error", err)
	}
	// Unclosed nesting just past the cap is rejected by depth, not by a
	// later syntax error, so the recursion really is bounded.
	past := strings.Repeat("join(", maxAFLDepth+1) + "A"
	if _, err := db.Query(past); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("cap+1 nesting: err = %v, want the depth error", err)
	}
	// Real queries sit far below the cap: depth 20 works end to end.
	q := "join(A, B)"
	for i := 0; i < 19; i++ {
		q = "store(" + q + ", C)"
	}
	if _, err := db.Query(q); err != nil {
		t.Fatalf("depth-20 query should parse and run: %v", err)
	}
}

// FuzzAFLQuery drives the full AFL pipeline (parse + eval) with arbitrary
// query strings. Run continuously with:
//
//	go test ./internal/array -run '^$' -fuzz '^FuzzAFLQuery$' -fuzztime 10s
//
// Properties checked: no panic, no stack exhaustion (the depth cap), and
// store() results remain retrievable when a query succeeds. The seeds
// spelling scan(), regrid, subarray and project are outside the grammar:
// they must be errors, never panics.
func FuzzAFLQuery(f *testing.F) {
	seeds := []string{
		"A",
		"scan(A)",
		"join(A, B)",
		"apply(join(A, B), s, f(A.v, B.v))",
		"store(apply(join(A, B), ndsi, f(A.v, B.v)), NDSI)", // Query 1's shape
		"regrid(A, 2, 2, avg)",
		"regrid(A, 2, 2, avg(v))",
		"subarray(A, 0, 0, 3, 3)",
		"subarray(A, -1, -1, 99, 99)",
		"project(scan(A), v)",
		"project(A, v, v)",
		"  store( scan( A ) , C )  ",
		"store(A,)",          // missing name
		"join(A,",            // truncated
		"regrid(A, 2, 2, f(", // truncated agg form
		"f()(",
		strings.Repeat("join(", 40) + "A" + strings.Repeat(", B)", 40),
		strings.Repeat("store(", 300) + "A", // past the depth cap
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		db := fuzzDB() // fresh per input: store() must not leak across runs
		out, err := db.Query(q)
		if err != nil {
			return
		}
		if out == nil {
			t.Fatalf("Query(%q) returned nil array and nil error", q)
		}
	})
}
