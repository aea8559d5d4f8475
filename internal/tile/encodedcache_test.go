package tile

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEncodedCacheHitMiss(t *testing.T) {
	var encodes atomic.Int64
	ec := NewEncodedCache(1<<20, nil)
	c := Coord{Level: 1, Y: 0, X: 1}
	enc := func() ([]byte, error) {
		encodes.Add(1)
		return []byte("payload"), nil
	}
	for i := 0; i < 3; i++ {
		got, err := ec.Get(c, FormatJSON, false, enc)
		if err != nil || !bytes.Equal(got, []byte("payload")) {
			t.Fatalf("Get #%d = %q, %v", i, got, err)
		}
	}
	// A different format / compression variant is a distinct entry.
	if _, err := ec.Get(c, FormatBinary, false, enc); err != nil {
		t.Fatal(err)
	}
	if _, err := ec.Get(c, FormatJSON, true, enc); err != nil {
		t.Fatal(err)
	}
	if n := encodes.Load(); n != 3 {
		t.Errorf("encode ran %d times, want 3 (one per variant)", n)
	}
	st := ec.Stats()
	if st.Misses != 3 || st.Hits != 2 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 3 misses / 2 hits / 3 entries", st)
	}
	if st.Cost <= 0 || st.Budget != 1<<20 {
		t.Errorf("stats accounting = %+v", st)
	}
	// The /tile hit path: a resident payload costs no allocation, encode
	// closure included.
	if n := testing.AllocsPerRun(100, func() { ec.Get(c, FormatJSON, false, enc) }); n != 0 {
		t.Errorf("encoded-cache hit allocates %v times, want 0", n)
	}
}

func TestEncodedCacheSingleFlight(t *testing.T) {
	var encodes atomic.Int64
	release := make(chan struct{})
	ec := NewEncodedCache(1<<20, nil)
	c := Coord{Level: 2, Y: 1, X: 1}
	const workers = 16
	var wg sync.WaitGroup
	results := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := ec.Get(c, FormatBinary, false, func() ([]byte, error) {
				encodes.Add(1)
				<-release // hold every concurrent caller in the coalesced window
				return []byte("once"), nil
			})
			if err == nil {
				results[i] = got
			}
		}(i)
	}
	// Let the goroutines pile up on the in-flight call, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := encodes.Load(); n != 1 {
		t.Errorf("encode ran %d times under concurrency, want 1", n)
	}
	for i, got := range results {
		if !bytes.Equal(got, []byte("once")) {
			t.Errorf("worker %d got %q", i, got)
		}
	}
	if st := ec.Stats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, workers-1)
	}
}

func TestEncodedCacheErrorNotCached(t *testing.T) {
	ec := NewEncodedCache(1<<20, nil)
	c := Coord{}
	boom := errors.New("encode failed")
	if _, err := ec.Get(c, FormatJSON, false, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Get error = %v, want %v", err, boom)
	}
	// The failure must not poison the key: the next Get encodes again.
	got, err := ec.Get(c, FormatJSON, false, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || !bytes.Equal(got, []byte("ok")) {
		t.Fatalf("Get after error = %q, %v", got, err)
	}
	if st := ec.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 entry / 2 misses", st)
	}
}

func TestEncodedCacheEvictsLRU(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1024)
	// Room for ~4 entries of 1024+overhead bytes.
	ec := NewEncodedCache(4*(1024+encEntryOverhead), nil)
	enc := func() ([]byte, error) { return payload, nil }
	for i := 0; i < 8; i++ {
		if _, err := ec.Get(Coord{Level: 10, Y: i, X: 0}, FormatJSON, false, enc); err != nil {
			t.Fatal(err)
		}
	}
	st := ec.Stats()
	if st.Evicted != 4 || st.Entries != 4 {
		t.Errorf("stats = %+v, want 4 evicted / 4 resident", st)
	}
	if st.Cost > st.Budget {
		t.Errorf("resident bytes %d over budget %d", st.Cost, st.Budget)
	}
	// The most recently inserted coords are the survivors.
	var encodes atomic.Int64
	counting := func() ([]byte, error) { encodes.Add(1); return payload, nil }
	for i := 4; i < 8; i++ {
		if _, err := ec.Get(Coord{Level: 10, Y: i, X: 0}, FormatJSON, false, counting); err != nil {
			t.Fatal(err)
		}
	}
	if n := encodes.Load(); n != 0 {
		t.Errorf("recent entries were evicted: %d re-encodes", n)
	}
}

func TestEncodedCacheOversizeEntryStays(t *testing.T) {
	ec := NewEncodedCache(64, nil)
	big := bytes.Repeat([]byte("y"), 4096)
	if _, err := ec.Get(Coord{}, FormatBinary, false, func() ([]byte, error) { return big, nil }); err != nil {
		t.Fatal(err)
	}
	// The over-budget entry is kept (serving it is the point), and the next
	// insert evicts it rather than growing without bound.
	if st := ec.Stats(); st.Entries != 1 {
		t.Errorf("oversize entry dropped: %+v", st)
	}
	if _, err := ec.Get(Coord{Level: 1, Y: 1, X: 1}, FormatBinary, false, func() ([]byte, error) { return big, nil }); err != nil {
		t.Fatal(err)
	}
	if st := ec.Stats(); st.Entries != 1 || st.Evicted != 1 {
		t.Errorf("stats after second oversize insert = %+v", st)
	}
}

func TestEncodedCacheOnEncodeHook(t *testing.T) {
	var calls atomic.Int64
	ec := NewEncodedCache(1<<20, func(d time.Duration) {
		if d < 0 {
			panic(fmt.Sprintf("negative duration %v", d))
		}
		calls.Add(1)
	})
	enc := func() ([]byte, error) { return []byte("z"), nil }
	for i := 0; i < 3; i++ {
		if _, err := ec.Get(Coord{}, FormatJSON, false, enc); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("onEncode fired %d times, want 1 (misses only)", n)
	}
}
