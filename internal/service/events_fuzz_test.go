package service

import (
	"math/big"
	"strings"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
)

// FuzzEventsResume checks the resume cursor of GET /v1/jobs/{id}/events,
// which any client sends as Last-Event-ID: a progress state holding k
// events (up to twice the ring, so it wraps) is read from the cursor the
// header gives. A cursor that is not a decimal number reads as 0, and
// the events returned carry strictly increasing seqs above the cursor,
// every retained one of them, ending at the newest.
func FuzzEventsResume(f *testing.F) {
	for _, seed := range []struct {
		id string
		k  uint16
	}{
		{"", 0}, {"0", 5}, {"3", 5}, {"5", 5}, {"9", 5},
		{"abc", 20}, {"-1", 20}, {"+3", 20}, {" 7", 20}, {"0x10", 20},
		{"18446744073709551615", 30}, {"18446744073709551616", 30},
		{"100", 2 * progressEvents}, {"600", 2 * progressEvents}, {"1", progressEvents + 1},
	} {
		f.Add(seed.id, seed.k)
	}
	f.Fuzz(func(t *testing.T, lastEventID string, k uint16) {
		n := uint64(k) % (2*progressEvents + 1)
		p := newProgressState(progressEvents, time.Now())
		for i := uint64(1); i <= n; i++ {
			p.Progress(obsv.ProgressEvent{Kind: obsv.ProgressStep, Step: int(i)})
		}

		after := parseSeq(lastEventID)
		decimal := lastEventID != "" && strings.Trim(lastEventID, "0123456789") == ""
		if !decimal && after != 0 {
			t.Fatalf("cursor %q reads as %d, want 0", lastEventID, after)
		}
		if v, ok := new(big.Int).SetString(lastEventID, 10); decimal && ok && v.IsUint64() && v.Uint64() != after {
			t.Fatalf("cursor %q reads as %d", lastEventID, after)
		}

		evs, _ := p.eventsSince(after)
		prev := after
		for _, e := range evs {
			if e.Seq <= prev {
				t.Fatalf("cursor %d over %d events: seq %d after %d", after, n, e.Seq, prev)
			}
			prev = e.Seq
		}
		var want uint64 // events above the cursor that the ring retains
		if after < n {
			want = min(n-after, n, progressEvents)
		}
		if uint64(len(evs)) != want {
			t.Fatalf("cursor %d over %d events: %d returned, want %d", after, n, len(evs), want)
		}
		if want > 0 && evs[len(evs)-1].Seq != n {
			t.Fatalf("cursor %d over %d events: last seq %d, not the newest", after, n, evs[len(evs)-1].Seq)
		}
	})
}
