package backend

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forecache/internal/tile"
)

func TestSharedPoolDeduplicatesAcrossSessions(t *testing.T) {
	pyr := buildPyramid(t)
	clock := &SimClock{}
	db := NewDBMS(pyr, DefaultLatency(), clock)
	pool := NewSharedPool(db, 8)

	root := tile.Coord{}
	// Session A misses: full DBMS round trip.
	if _, err := pool.Fetch(root); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed(); got != 984*time.Millisecond {
		t.Fatalf("first fetch elapsed = %v", got)
	}
	// Session B asks for the same tile: pool hit, hit latency only.
	if _, err := pool.Fetch(root); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed(); got != 984*time.Millisecond+19500*time.Microsecond {
		t.Fatalf("second fetch elapsed = %v, want one miss + one hit", got)
	}
	st := pool.Stats()
	if st.PoolHits != 1 || st.DBMSFetches != 1 {
		t.Errorf("stats = %+v", st)
	}
	if db.Queries() != 1 {
		t.Errorf("DBMS queries = %d, want 1 (deduplicated)", db.Queries())
	}
	if n := testing.AllocsPerRun(100, func() { pool.Fetch(root) }); n != 0 {
		t.Errorf("pool hit allocates %v times, want 0", n)
	}
}

// gateClock holds every DBMS round trip open until ready reports that all
// fetchers have arrived, either here or as joiners counted by the pool.
type gateClock struct {
	SimClock
	miss    time.Duration
	arrived atomic.Int64
	ready   func() bool
}

func (g *gateClock) Sleep(d time.Duration) {
	if d == g.miss {
		g.arrived.Add(1)
		for deadline := time.Now().Add(10 * time.Second); !g.ready() && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	g.SimClock.Sleep(d)
}

// Sessions missing one coordinate at the same moment share one DBMS round
// trip; the joiners are pool hits and pay the hit latency.
func TestSharedPoolConcurrentMissesShareOneFetch(t *testing.T) {
	const n = 16
	lat := DefaultLatency()
	clock := &gateClock{miss: lat.Miss}
	db := NewDBMS(buildPyramid(t), lat, clock)
	pool := NewSharedPool(db, 8)
	clock.ready = func() bool {
		return clock.arrived.Load()+int64(pool.Stats().PoolHits) == n
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Fetch(tile.Coord{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := pool.Stats()
	if db.Queries() != 1 || st.DBMSFetches != 1 || st.PoolHits != n-1 {
		t.Errorf("queries = %d, stats = %+v; want 1 DBMS fetch and %d pool hits", db.Queries(), st, n-1)
	}
	if want := lat.Miss + (n-1)*lat.Hit; clock.Elapsed() != want {
		t.Errorf("charged %v, want one miss + %d hits = %v", clock.Elapsed(), n-1, want)
	}
}

func TestSharedPoolQuietPathPopulates(t *testing.T) {
	pyr := buildPyramid(t)
	db := NewDBMS(pyr, DefaultLatency(), &SimClock{})
	pool := NewSharedPool(db, 4)
	c := tile.Coord{Level: 1, Y: 1, X: 0}
	if _, err := pool.FetchQuiet(c); err != nil { // one session prefetches
		t.Fatal(err)
	}
	if _, err := pool.Fetch(c); err != nil { // another session requests
		t.Fatal(err)
	}
	if db.Queries() != 1 {
		t.Errorf("queries = %d, want 1: prefetch should feed other sessions", db.Queries())
	}
}

func TestSharedPoolEvicts(t *testing.T) {
	pyr := buildPyramid(t)
	db := NewDBMS(pyr, DefaultLatency(), nil)
	pool := NewSharedPool(db, 2)
	coords := []tile.Coord{
		{Level: 1, Y: 0, X: 0}, {Level: 1, Y: 0, X: 1}, {Level: 1, Y: 1, X: 0},
	}
	for _, c := range coords {
		if _, err := pool.FetchQuiet(c); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Len() != 2 {
		t.Errorf("Len = %d, want 2", pool.Len())
	}
	if pool.Stats().Evicted != 1 {
		t.Errorf("Evicted = %d, want 1", pool.Stats().Evicted)
	}
	// The oldest (first) coord was evicted; refetching hits the DBMS again.
	before := db.Queries()
	if _, err := pool.FetchQuiet(coords[0]); err != nil {
		t.Fatal(err)
	}
	if db.Queries() != before+1 {
		t.Error("evicted tile should require a fresh DBMS fetch")
	}
}

func TestSharedPoolErrorsPassThrough(t *testing.T) {
	pyr := buildPyramid(t)
	pool := NewSharedPool(NewDBMS(pyr, DefaultLatency(), nil), 4)
	if _, err := pool.Fetch(tile.Coord{Level: 42}); err == nil {
		t.Error("invalid coordinate should fail")
	}
	if _, err := pool.FetchQuiet(tile.Coord{Level: 42}); err == nil {
		t.Error("invalid coordinate should fail on the quiet path too")
	}
}

func TestSharedPoolConcurrent(t *testing.T) {
	pyr := buildPyramid(t)
	db := NewDBMS(pyr, DefaultLatency(), &SimClock{})
	pool := NewSharedPool(db, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := tile.Coord{Level: 2, Y: (g + i) % 4, X: i % 4}
				if _, err := pool.Fetch(c); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := pool.Stats()
	if st.PoolHits+st.DBMSFetches < 800 {
		t.Errorf("stats undercount concurrent fetches: %+v", st)
	}
}

// The Store interface must be satisfied by both back ends.
var (
	_ Store = (*DBMS)(nil)
	_ Store = (*SharedPool)(nil)
)
