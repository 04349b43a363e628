package obsv

import (
	"strings"
	"testing"
)

// FuzzParseTraceContext checks the X-Janus-Trace parser, which reads
// untrusted input on every hop. An accepted value carries a trace id the
// request-id policy keeps verbatim and a positive parent, and its
// rendering parses back to the same context. For any input the request-id
// policy returns either "" or its input. The seeds are the round-trip
// and reject cases of the unit tests.
func FuzzParseTraceContext(f *testing.F) {
	for _, s := range []string{
		"t4f2a-12-7", "f00:ba.r_8-18446744073709551615", "x-1",
		"", "-", "noparent", "noparent-", "-7", "t1-0", "t1-x7", "t1-7x",
		"sp ace-7", "ёжик-7", strings.Repeat("a", 65) + "-7",
		"t1--", "t1-7-", "t1-18446744073709551616", "t1-007", "t1-+7",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if id := SanitizeRequestID(s); id != "" && id != s {
			t.Fatalf("SanitizeRequestID(%q) = %q, neither empty nor its input", s, id)
		}
		tc, ok := ParseTraceContext(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("ParseTraceContext(%q) rejected but returned %+v", s, tc)
			}
			return
		}
		if SanitizeRequestID(tc.TraceID) != tc.TraceID {
			t.Fatalf("ParseTraceContext(%q) accepted trace id %q the request-id policy rejects", s, tc.TraceID)
		}
		if tc.Parent == 0 {
			t.Fatalf("ParseTraceContext(%q) accepted a zero parent", s)
		}
		if back, ok := ParseTraceContext(tc.String()); !ok || back != tc {
			t.Fatalf("ParseTraceContext(%q) = %+v, but its rendering %q parses to %+v, %v",
				s, tc, tc.String(), back, ok)
		}
	})
}
