package recommend

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"forecache/internal/trace"
)

// moveTrace is a trace of the given moves after a session-start request;
// AB trains on moves only, so every coordinate is the root.
func moveTrace(moves ...trace.Move) *trace.Trace {
	tr := &trace.Trace{Requests: []trace.Request{{Move: trace.None}}}
	for _, mv := range moves {
		tr.Requests = append(tr.Requests, trace.Request{Move: mv})
	}
	return tr
}

// randomMoveTraces returns n traces of length moves each, drawn uniformly
// from alphabet.
func randomMoveTraces(rng *rand.Rand, n, length int, alphabet []trace.Move) []*trace.Trace {
	var out []*trace.Trace
	for range n {
		moves := make([]trace.Move, length)
		for j := range moves {
			moves[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out = append(out, moveTrace(moves...))
	}
	return out
}

// probOf is the unmemoized chain probability of next after ctx, oldest
// first; a context longer than the order keeps its newest moves.
func probOf(m *AB, ctx []trace.Move, next trace.Move) float64 {
	var packed uint64
	for _, mv := range ctx {
		packed = m.push(packed, mv)
	}
	return m.prob(packed, next)
}

func mustAB(t testing.TB, order int, traces []*trace.Trace) *AB {
	t.Helper()
	m, err := NewAB(order, traces)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewABRejectsBadOrder(t *testing.T) {
	tr := []*trace.Trace{moveTrace(trace.ZoomInNW, trace.PanLeft)}
	if _, err := NewAB(0, tr); err == nil {
		t.Error("order 0 should fail")
	}
	if _, err := NewAB(-1, tr); err == nil {
		t.Error("negative order should fail")
	}
}

const (
	up, down, left, right = trace.PanUp, trace.PanDown, trace.PanLeft, trace.PanRight
	zout, nw, ne, sw, se  = trace.ZoomOut, trace.ZoomInNW, trace.ZoomInNE, trace.ZoomInSW, trace.ZoomInSE
)

func TestABTrainedChainPrefersObservedTransition(t *testing.T) {
	// "after three lefts comes a fourth left" appears repeatedly.
	var traces []*trace.Trace
	for range 10 {
		traces = append(traces, moveTrace(left, left, left, left, up))
	}
	traces = append(traces, moveTrace(left, left, left, down))
	m := mustAB(t, 3, traces)
	ctx := []trace.Move{left, left, left}
	pLeft, pDown, pUp := probOf(m, ctx, left), probOf(m, ctx, down), probOf(m, ctx, up)
	if !(pLeft > pDown && pDown > 0 && pUp > 0) {
		t.Errorf("P(left)=%v P(down)=%v P(up)=%v", pLeft, pDown, pUp)
	}
}

// After three zoom-ins comes a zoom-in: the top of the nine moves when
// the traces hold it twice as often as the zoom-out that ends them.
func TestABThreeZoomInsThenZoomIn(t *testing.T) {
	m := mustAB(t, 3, []*trace.Trace{moveTrace(nw, nw, nw, nw, nw, zout), moveTrace(nw, nw, nw, nw, nw, zout)})
	ctx := []trace.Move{nw, nw, nw}
	for _, mv := range allMoves {
		if mv != nw && probOf(m, ctx, mv) >= probOf(m, ctx, nw) {
			t.Errorf("P(%v | in-nw×3) = %v, not below P(in-nw) = %v", mv, probOf(m, ctx, mv), probOf(m, ctx, nw))
		}
	}
}

func TestABProbabilitiesSumToOne(t *testing.T) {
	m := mustAB(t, 2, randomMoveTraces(rand.New(rand.NewSource(3)), 20, 30, allMoves))
	for _, ctx := range [][]trace.Move{
		{up, down}, {zout, zout}, {nw, up}, // full
		{up},             // shorter than order
		{down, zout, se}, // longer than order
		{},               // empty
	} {
		sum := 0.0
		for _, mv := range allMoves {
			sum += probOf(m, ctx, mv)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("context %v: probabilities sum to %v", ctx, sum)
		}
	}
}

func TestABUnseenContextBacksOff(t *testing.T) {
	m := mustAB(t, 3, []*trace.Trace{moveTrace(up, up, up, down, down, down, down)})
	// Context never observed: must still produce a proper distribution.
	if p := probOf(m, []trace.Move{down, up, down}, down); p <= 0 || p >= 1 {
		t.Errorf("backoff probability = %v, want in (0,1)", p)
	}
	// Unseen move-in-context gets smoothed nonzero mass.
	if p := probOf(m, []trace.Move{up, up, up}, up); p <= 0 {
		t.Errorf("smoothed unseen transition = %v, want > 0", p)
	}
}

func TestABContinuationCountEffect(t *testing.T) {
	// in-nw follows many different moves; in-ne follows only one, with a
	// higher raw count. Under an unseen context the continuation-based
	// unigram should favor the versatile in-nw (the classic "San
	// Francisco" effect that distinguishes KN from add-one smoothing).
	var traces []*trace.Trace
	for _, mv := range []trace.Move{up, down, left, right} {
		traces = append(traces, moveTrace(up, mv, nw))
	}
	for range 6 {
		traces = append(traces, moveTrace(zout, zout, ne))
	}
	m := mustAB(t, 2, traces)
	ctx := []trace.Move{sw, se} // fully unseen context
	if pnw, pne := probOf(m, ctx, nw), probOf(m, ctx, ne); !(pnw > pne) {
		t.Errorf("continuation: P(in-nw)=%v should exceed P(in-ne)=%v under unseen context", pnw, pne)
	}
}

func TestABUntrainedScoresZero(t *testing.T) {
	m := mustAB(t, 3, nil)
	if p := probOf(m, []trace.Move{up, down, left}, right); p != 0 {
		t.Errorf("untrained chain prob = %v, want 0", p)
	}
	h := trace.NewHistory(3)
	h.Push(trace.Request{Move: nw})
	for _, r := range m.Predict(trace.Request{}, []Candidate{{Moves: []trace.Move{nw}}, {Moves: []trace.Move{up, up}}}, h) {
		if r.Score != 0 {
			t.Errorf("untrained chain scores %v, want 0", r.Score)
		}
	}
}

func TestABHigherOrderCapturesLongerPatterns(t *testing.T) {
	// The pattern "up up down -> left" vs "down up down -> right" is
	// invisible to order 1 (context "down" is ambiguous) but separable at
	// order 3.
	var traces []*trace.Trace
	for range 10 {
		traces = append(traces, moveTrace(up, up, down, left), moveTrace(down, up, down, right))
	}
	p3 := probOf(mustAB(t, 3, traces), []trace.Move{up, up, down}, left)
	p1 := probOf(mustAB(t, 1, traces), []trace.Move{down}, left)
	if !(p3 > p1) {
		t.Errorf("order-3 P(left)=%v should exceed order-1 P(left)=%v", p3, p1)
	}
	if p3 < 0.6 {
		t.Errorf("order-3 should be confident, got %v", p3)
	}
}

// A None request mid-trace is skipped, not a break: the moves either side
// of it train as one run.
func TestABSkipsNoneMidTrace(t *testing.T) {
	traces := randomMoveTraces(rand.New(rand.NewSource(5)), 6, 20, allMoves)
	var broken []*trace.Trace
	for _, tr := range traces {
		reqs := slices.Insert(slices.Clone(tr.Requests), 9, trace.Request{Move: trace.None})
		broken = append(broken, &trace.Trace{Requests: reqs})
	}
	want, got := mustAB(t, 2, traces), mustAB(t, 2, broken)
	ctxs := [][]trace.Move{nil}
	for i := 0; i < len(ctxs); i++ {
		if len(ctxs[i]) < 2 {
			for _, mv := range allMoves {
				ctxs = append(ctxs, append(slices.Clone(ctxs[i]), mv))
			}
		}
		for _, mv := range allMoves {
			if w, g := probOf(want, ctxs[i], mv), probOf(got, ctxs[i], mv); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("P(%v | %v) = %v with a None mid-trace, %v without", mv, ctxs[i], g, w)
			}
		}
	}
}

// Property: for random corpora, all probabilities are valid and the
// distribution over the moves seen in training sums to 1 in any context.
func TestABProbDistributionProperty(t *testing.T) {
	f := func(seed int64, orderRaw uint8) bool {
		order := int(orderRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		var traces []*trace.Trace
		seen := map[trace.Move]bool{}
		for range 5 {
			tr := randomMoveTraces(rng, 1, 12+rng.Intn(10), allMoves)[0]
			for _, r := range tr.Requests[1:] {
				seen[r.Move] = true
			}
			traces = append(traces, tr)
		}
		m, err := NewAB(order, traces)
		if err != nil {
			return false
		}
		ctx := make([]trace.Move, order)
		for j := range ctx {
			ctx[j] = allMoves[rng.Intn(len(allMoves))]
		}
		sum := 0.0
		for mv := range seen {
			p := probOf(m, ctx, mv)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// BenchmarkABTrainOrder3 measures NewAB's training pass: 54 traces of 30
// random moves, the size of the simulated study.
func BenchmarkABTrainOrder3(b *testing.B) {
	traces := randomMoveTraces(rand.New(rand.NewSource(1)), 54, 30, allMoves)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAB(3, traces); err != nil {
			b.Fatal(err)
		}
	}
}
