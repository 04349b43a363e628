package obsv

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestProgressKindStrings: the kind names are the event stream's wire
// vocabulary; renames break SSE consumers.
func TestProgressKindStrings(t *testing.T) {
	want := map[ProgressKind]string{
		ProgressPhaseStart: "phase_start",
		ProgressPhaseDone:  "phase_done",
		ProgressBound:      "bound",
		ProgressIncumbent:  "incumbent",
		ProgressStep:       "step",
		ProgressKind(0):    "unknown",
		ProgressKind(99):   "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("kind %d = %q, want %q", k, k.String(), s)
		}
	}
}

// TestProgressContext: the sink rides the context like the tracer does,
// and both a nil context and a sink-free context read back nil.
func TestProgressContext(t *testing.T) {
	if ProgressFromContext(nil) != nil { //nolint:staticcheck // nil ctx is the point
		t.Fatal("nil context must carry no sink")
	}
	if ProgressFromContext(context.Background()) != nil {
		t.Fatal("fresh context must carry no sink")
	}
	pw := NewProgressWriter(&strings.Builder{})
	ctx := ContextWithProgress(context.Background(), pw)
	if got := ProgressFromContext(ctx); got != ProgressSink(pw) {
		t.Fatalf("round-trip lost the sink: %v", got)
	}
}

// TestProgressWriterRendering: one line per event, offset-stamped, with
// the sub prefix and verified suffix where they apply.
func TestProgressWriterRendering(t *testing.T) {
	var buf strings.Builder
	pw := NewProgressWriter(&buf)
	pw.Progress(ProgressEvent{Kind: ProgressPhaseStart, Phase: "bounds"})
	pw.Progress(ProgressEvent{Kind: ProgressBound, LB: 4, UB: 12, Method: "DPS"})
	pw.Progress(ProgressEvent{Kind: ProgressIncumbent, Size: 9, Grid: "3x3", Verified: true})
	pw.Progress(ProgressEvent{Kind: ProgressStep, Step: 2, GridsProbed: 5})
	pw.Progress(ProgressEvent{Kind: ProgressBound, LB: 2, UB: 6, Method: "sat", Sub: true})
	pw.Progress(ProgressEvent{Kind: ProgressPhaseDone, Phase: "bounds"})
	pw.Progress(ProgressEvent{Kind: ProgressKind(42)}) // unknown kinds are dropped

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := []string{
		"phase bounds",
		"bound lb=4 ub=12 (DPS)",
		"incumbent 3x3=9 verified",
		"step 2 grids=5",
		"sub bound lb=2 ub=6 (sat)",
		"phase bounds done",
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], "[") || !strings.Contains(lines[i], "s] "+w) {
			t.Fatalf("line %d = %q, want offset + %q", i, lines[i], w)
		}
	}
}

// TestProgressWriterNil: nil writers and sinks discard events without
// panicking — the allocation-free-when-off contract's last line.
func TestProgressWriterNil(t *testing.T) {
	var pw *ProgressWriter
	pw.Progress(ProgressEvent{Kind: ProgressBound})
	(&ProgressWriter{}).Progress(ProgressEvent{Kind: ProgressBound})
}

// TestProgressWriterConcurrent: emission sites run from parallel search
// workers; the writer must serialize lines (runs under -race in CI).
func TestProgressWriterConcurrent(t *testing.T) {
	// strings.Builder is not itself goroutine-safe: the writer's own
	// mutex is what must serialize these (checked under -race in CI).
	var buf strings.Builder
	pw := NewProgressWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				pw.Progress(ProgressEvent{Kind: ProgressStep, Step: i})
			}
		}()
	}
	wg.Wait()
	if n := strings.Count(buf.String(), "\n"); n != 400 {
		t.Fatalf("%d lines, want 400", n)
	}
}
