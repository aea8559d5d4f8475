package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func byteCost(v string) int64 { return int64(len(v)) }

// waitFor spins until cond holds: the condition below is a counter other
// goroutines bump under the cache lock, so there is no channel to wait on.
// It is called off the test goroutine, hence Errorf and not Fatalf.
func waitFor(t *testing.T, what string, cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
		runtime.Gosched()
	}
}

// TestConcurrentGetsShareOneLoad holds one load open until every other
// caller has joined it, across the three budget regimes the callers use.
func TestConcurrentGetsShareOneLoad(t *testing.T) {
	const callers = 64
	boom := errors.New("boom")
	cases := []struct {
		name        string
		budget      int64
		loadErr     error
		wantEntries int
	}{
		{"retained", 1 << 10, nil, 1},
		{"error reaches every waiter, nothing retained", 1 << 10, boom, 0},
		{"budget 0 coalesces, nothing retained", 0, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int](tc.budget, byteCost)
			var loads atomic.Int64
			load := func() (string, error) {
				loads.Add(1)
				waitFor(t, "every caller to join", func() bool { return c.Stats().Hits == callers-1 })
				return "v", tc.loadErr
			}
			var wg sync.WaitGroup
			var joined atomic.Int64
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, hit, err := c.Get(7, load)
					if v != "v" || err != tc.loadErr {
						t.Errorf("Get = %q, %v; want \"v\", %v", v, err, tc.loadErr)
					}
					if hit {
						joined.Add(1)
					}
				}()
			}
			wg.Wait()
			if loads.Load() != 1 || joined.Load() != callers-1 {
				t.Errorf("loads = %d, joined = %d; want 1 and %d", loads.Load(), joined.Load(), callers-1)
			}
			if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != tc.wantEntries {
				t.Errorf("stats = %+v, want 1 miss / %d hits / %d entries", st, callers-1, tc.wantEntries)
			}
			// A retained value is served without loading; otherwise the
			// next Get loads again.
			_, hit, _ := c.Get(7, func() (string, error) { return "v", nil })
			if hit != (tc.wantEntries == 1) {
				t.Errorf("follow-up Get hit = %v with %d entries retained", hit, tc.wantEntries)
			}
		})
	}
}

// TestScriptedSequence replays Gets one at a time (value = key, cost =
// len(key)) and checks the resident set, oldest first, and the counters.
func TestScriptedSequence(t *testing.T) {
	type step struct {
		key     string
		wantHit bool
	}
	cases := []struct {
		name     string
		budget   int64
		steps    []step
		wantLRU  []string // least recently used first
		wantCost int64
		evicted  int64
	}{
		{
			name:   "a hit refreshes recency, eviction takes the oldest",
			budget: 6,
			steps: []step{
				{"aa", false}, {"bb", false}, {"cc", false}, // full at 6
				{"aa", true},    // bb is now oldest
				{"dd", false},   // evicts bb
				{"bb", false},   // evicts cc
				{"eeee", false}, // needs two victims: aa, dd
				{"bb", true},    // eeee is now oldest
				{"aa", false},   // evicts eeee
			},
			wantLRU:  []string{"bb", "aa"},
			wantCost: 4,
			evicted:  5,
		},
		{
			name:   "an entry larger than the budget is served and kept until the next insert",
			budget: 3,
			steps: []step{
				{"a", false},
				{"oversize", false}, // evicts a, stays alone over budget
				{"oversize", true},
				{"b", false}, // evicts oversize
			},
			wantLRU:  []string{"b"},
			wantCost: 1,
			evicted:  2,
		},
		{
			name:     "budget 0 retains nothing",
			budget:   0,
			steps:    []step{{"a", false}, {"a", false}},
			wantLRU:  nil,
			wantCost: 0,
			evicted:  0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](tc.budget, byteCost)
			var hits, misses int64
			for i, s := range tc.steps {
				v, hit, err := c.Get(s.key, func() (string, error) { return s.key, nil })
				if v != s.key || err != nil || hit != s.wantHit {
					t.Fatalf("step %d Get(%q) = %q, %v, %v; want hit %v", i, s.key, v, hit, err, s.wantHit)
				}
				if hit {
					hits++
				} else {
					misses++
				}
			}
			var lru []string
			for el := c.lru.Back(); el != nil; el = el.Prev() {
				lru = append(lru, el.Value.(*entry[string, string]).key)
			}
			if fmt.Sprint(lru) != fmt.Sprint(tc.wantLRU) {
				t.Errorf("resident, oldest first = %v, want %v", lru, tc.wantLRU)
			}
			want := Stats{Hits: hits, Misses: misses, Evicted: tc.evicted,
				Entries: len(tc.wantLRU), Cost: tc.wantCost, Budget: tc.budget}
			if st := c.Stats(); st != want {
				t.Errorf("stats = %+v, want %+v", st, want)
			}
			if len(c.entries) != len(tc.wantLRU) {
				t.Errorf("index holds %d keys, want %d", len(c.entries), len(tc.wantLRU))
			}
		})
	}
}

// TestResidentGetDoesNotAllocate gates the hot path of /tile: an
// encoded-cache hit and a pool hit are both a resident-key Get.
func TestResidentGetDoesNotAllocate(t *testing.T) {
	c := New[int](1<<10, byteCost)
	load := func() (string, error) { return "v", nil }
	c.Get(1, load)
	if n := testing.AllocsPerRun(100, func() { c.Get(1, load) }); n != 0 {
		t.Errorf("resident Get allocates %v times per call, want 0", n)
	}
}
