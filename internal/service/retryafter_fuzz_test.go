package service

import (
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// FuzzParseRetryAfter checks the Retry-After reader, which parses a
// header the client and the front take from any backend: the delay is
// never negative, and a decimal number of seconds that fits a
// time.Duration gives exactly that many seconds.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for _, h := range []string{
		"", "1", "120", "0", "-5", "1.5", "2m", "soon", "+3",
		"9223372036854775807", "10000000000", "9223372036",
		now.Add(30 * time.Second).Format(http.TimeFormat),
		now.Add(-time.Minute).Format(http.TimeFormat),
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		got := parseRetryAfter(h, now)
		if got < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, a negative delay", h, got)
		}
		secs, err := strconv.ParseInt(h, 10, 64)
		if err == nil && secs >= 0 && secs <= math.MaxInt64/int64(time.Second) {
			if want := time.Duration(secs) * time.Second; got != want {
				t.Fatalf("parseRetryAfter(%q) = %v, want %v", h, got, want)
			}
		}
	})
}
