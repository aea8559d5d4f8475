package shard

import (
	"fmt"
	"testing"
)

func TestLocateInRangeAndStable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16, 64} {
		r := NewRing(n)
		if r.Shards() != n {
			t.Fatalf("Shards() = %d, want %d", r.Shards(), n)
		}
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("session-%d", i)
			got := r.Locate(key)
			if got < 0 || got >= n {
				t.Fatalf("n=%d Locate(%q) = %d, out of range", n, key, got)
			}
			if again := r.Locate(key); again != got {
				t.Fatalf("n=%d Locate(%q) unstable: %d then %d", n, key, got, again)
			}
			// A fresh ring over the same N answers identically: routing is a
			// pure function of (key, N), never of ring construction history.
			if fresh := NewRing(n).Locate(key); fresh != got {
				t.Fatalf("n=%d Locate(%q) differs across rings: %d vs %d", n, key, got, fresh)
			}
		}
	}
}

func TestSingleShardAlwaysZero(t *testing.T) {
	r := NewRing(1)
	for _, key := range []string{"", "default", "user-42", "\x00\xff", "日本語", "a b\nc"} {
		if got := r.Locate(key); got != 0 {
			t.Errorf("Locate(%q) = %d, want 0 on a 1-shard ring", key, got)
		}
	}
	if got := NewRing(0).Locate("x"); got != 0 {
		t.Errorf("NewRing(0).Locate = %d, want 0 (clamped to one shard)", got)
	}
	if got := NewRing(-3).Shards(); got != 1 {
		t.Errorf("NewRing(-3).Shards() = %d, want 1", got)
	}
}

// TestBalance: the mixed hash keeps the assignment roughly uniform — no
// shard may own a wildly disproportionate share of 10k distinct sessions.
func TestBalance(t *testing.T) {
	const keys = 10000
	for _, n := range []int{2, 4, 8} {
		r := NewRing(n)
		counts := make([]int, n)
		for i := 0; i < keys; i++ {
			counts[r.Locate(fmt.Sprintf("user-%d", i))]++
		}
		mean := keys / n
		for s, c := range counts {
			if c < mean/2 || c > mean*2 {
				t.Errorf("n=%d shard %d owns %d of %d keys (mean %d): unbalanced", n, s, c, keys, mean)
			}
		}
	}
}

func BenchmarkLocate(b *testing.B) {
	r := NewRing(8)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Locate(keys[i%len(keys)])
	}
}
