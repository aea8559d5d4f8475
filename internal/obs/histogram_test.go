package obs

import (
	"math"
	"sync"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	if len(got) != len(want) {
		t.Fatalf("got %d bounds, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bound[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 4) },
		func() { ExpBuckets(0.001, 1, 4) },
		func() { ExpBuckets(0.001, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("ExpBuckets accepted invalid arguments")
				}
			}()
			bad()
		}()
	}
}

func TestNewHistogramRejectsNonIncreasing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram accepted non-increasing bounds")
		}
	}()
	NewHistogram([]float64{0.1, 0.1})
}

// TestHistogramBucketMath pins the le semantics: a value lands in the
// first bucket whose bound is >= the value (boundary values inclusive),
// and values above every bound land in +Inf.
func TestHistogramBucketMath(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01} { // both land in le=0.01
		h.Observe(v)
	}
	h.Observe(0.0100001) // just past the boundary: le=0.1
	h.Observe(1)         // boundary of the last finite bucket
	h.Observe(50)        // +Inf overflow

	snap := h.Snapshot()
	if len(snap.Bounds) != 3 || len(snap.Cumulative) != 4 {
		t.Fatalf("snapshot shape: %d bounds, %d cumulative", len(snap.Bounds), len(snap.Cumulative))
	}
	wantCum := []uint64{2, 3, 4, 5}
	for i, w := range wantCum {
		if snap.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (full: %v)", i, snap.Cumulative[i], w, snap.Cumulative)
		}
	}
	if snap.Count != 5 {
		t.Fatalf("Count = %d, want 5", snap.Count)
	}
	if snap.Cumulative[len(snap.Cumulative)-1] != snap.Count {
		t.Fatalf("+Inf bucket %d != Count %d", snap.Cumulative[len(snap.Cumulative)-1], snap.Count)
	}
	wantSum := 0.005 + 0.01 + 0.0100001 + 1 + 50
	if math.Abs(snap.Sum-wantSum) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
}

// TestHistogramConcurrent hammers one histogram from many goroutines and
// checks no observation is lost and the snapshot invariant holds.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-6, 10, 6))
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(seed*per+i) * 1e-6)
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d", snap.Count, goroutines*per)
	}
	for i := 1; i < len(snap.Cumulative); i++ {
		if snap.Cumulative[i] < snap.Cumulative[i-1] {
			t.Fatalf("cumulative not monotone: %v", snap.Cumulative)
		}
	}
	if snap.Cumulative[len(snap.Cumulative)-1] != snap.Count {
		t.Fatalf("+Inf %d != Count %d", snap.Cumulative[len(snap.Cumulative)-1], snap.Count)
	}
}

// Observe runs several times per traced request and must stay free of
// allocation.
func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(ExpBuckets(100e-6, 2, 15))
	if n := testing.AllocsPerRun(100, func() { h.Observe(3e-4) }); n != 0 {
		t.Errorf("Observe allocates %v times, want 0", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(ExpBuckets(100e-6, 2, 15))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram(ExpBuckets(100e-6, 2, 15))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-5)
			i++
		}
	})
}
