package trace

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzTraceRoundTrip drives the trace JSON codec (the tracegen/LoadDir
// wire format) with arbitrary bytes. Run continuously with:
//
//	go test ./internal/trace -run '^$' -fuzz '^FuzzTraceRoundTrip$' -fuzztime 10s
//
// Properties checked: no panic on any input, and every trace that decodes
// round-trips exactly — encode(decode(x)) decodes to the same value, so a
// saved trace can never silently mutate across a save/load cycle.
func FuzzTraceRoundTrip(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"user":1,"task":2,"requests":[]}`,
		`{"user":3,"task":1,"requests":[{"coord":{"level":1,"y":0,"x":1},"move":3,"phase":1}]}`,
		`{"user":-1,"task":999999999,"requests":[{"coord":{"level":-5,"y":-5,"x":-5},"move":-1,"phase":3}]}`,
		`{"requests":[{"move":99,"phase":-7}]}`,     // out-of-range enums survive
		`{"user":1.5}`,                              // non-integer: reject
		`{"requests":null}`,                         // null slice
		`{"requests":[null]}`,                       // null element
		`[1,2,3]`,                                   // wrong shape
		`{"user":1,"unknown_field":{"nested":[1]}}`, // unknown fields ignored
		``,
		`{"user":`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		if err := json.Unmarshal(data, &tr); err != nil {
			return // not a trace: fine, just must not panic
		}
		b, err := json.Marshal(&tr)
		if err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		var tr2 Trace
		if err := json.Unmarshal(b, &tr2); err != nil {
			t.Fatalf("re-encoded trace %s failed to decode: %v", b, err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip mutated the trace:\n  first  %+v\n  second %+v", tr, tr2)
		}
		// The derived accessor must tolerate whatever decoded, including
		// out-of-range moves and phases.
		tr.MoveCounts()
	})
}
