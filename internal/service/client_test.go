package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestParseRetryAfter pins the RFC 7231 semantics: integer seconds or
// an HTTP-date, everything else 0. The old ParseDuration(header+"s")
// path turned a proxy's "2m" into 2 milliseconds and rejected dates.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{"120", 2 * time.Minute},
		{"0", 0},
		{"-5", 0},   // negative: malformed, ignore
		{"1.5", 0},  // fractional: not RFC 7231
		{"2m", 0},   // duration syntax: not RFC 7231
		{"soon", 0}, // junk
		// A delay too long for a time.Duration.
		{"10000000000", 0},
		{now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0}, // date in the past
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.header, now); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestClientRetryAfterHeader drives the parse through a real 429
// answer: the client must surface the server's delay on APIError and
// leave it 0 for malformed headers (so retry loops fall back to their
// own pacing rather than sleeping a mis-parsed duration).
func TestClientRetryAfterHeader(t *testing.T) {
	var header string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if header != "" {
			w.Header().Set("Retry-After", header)
		}
		http.Error(w, `{"status":"error","error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)

	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"3", 3 * time.Second},
		{"2m", 0},
		{"", 0},
	} {
		header = tc.header
		_, err := c.Synthesize(context.Background(), Request{PLA: ".i 1\n.o 1\n1 1\n.e\n"})
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != http.StatusTooManyRequests {
			t.Fatalf("header %q: err = %v, want 429 APIError", tc.header, err)
		}
		if ae.RetryAfter != tc.want {
			t.Errorf("header %q: RetryAfter = %v, want %v", tc.header, ae.RetryAfter, tc.want)
		}
	}
}

// TestClientOptions: the construction options must behave as the front
// tier depends on them — the zero client shares the process keep-alive
// transport, WithTimeout bounds requests while still sharing that
// transport, and WithHTTPClient takes the caller's client verbatim.
func TestClientOptions(t *testing.T) {
	if c := NewClient("http://x"); c.http() != sharedHTTPClient {
		t.Fatal("zero-option client must use the shared keep-alive client")
	}

	c := NewClient("http://x", WithTimeout(250*time.Millisecond))
	if c.HTTPClient == nil || c.HTTPClient.Timeout != 250*time.Millisecond {
		t.Fatalf("WithTimeout not applied: %+v", c.HTTPClient)
	}
	if c.HTTPClient.Transport != sharedHTTPClient.Transport {
		t.Fatal("WithTimeout must share the pooled transport, not build a new one")
	}

	own := &http.Client{}
	if c := NewClient("http://x", WithHTTPClient(own)); c.http() != own {
		t.Fatal("WithHTTPClient ignored")
	}

	// And the timeout actually bites: a stalling server turns into a
	// client-side deadline error, not a hang.
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer func() { close(stall); ts.Close() }()
	tc := NewClient(ts.URL, WithTimeout(50*time.Millisecond))
	if _, err := tc.Health(context.Background()); err == nil {
		t.Fatal("bounded client returned from a stalled server")
	}
}

// TestClientKeepAlive: consecutive requests over the shared transport
// reuse one TCP connection — the reason the front can hold health polls
// plus request traffic against few backends without dial churn.
func TestClientKeepAlive(t *testing.T) {
	remotes := make(map[string]int)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remotes[r.RemoteAddr]++
		w.Write([]byte(`{"queue_depth":0}`)) //nolint:errcheck
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	for i := 0; i < 8; i++ {
		if _, err := c.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if len(remotes) != 1 {
		t.Fatalf("%d distinct client connections for 8 sequential requests, want 1 (keep-alive broken)", len(remotes))
	}
}
