package core

import (
	"sync"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/obsv"
)

// recordingSink captures every progress event (emission may come from
// parallel search workers, hence the lock).
type recordingSink struct {
	mu  sync.Mutex
	evs []obsv.ProgressEvent
}

func (r *recordingSink) Progress(ev obsv.ProgressEvent) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func (r *recordingSink) events() []obsv.ProgressEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obsv.ProgressEvent(nil), r.evs...)
}

// checkMonotone asserts the anytime contract over a top-level event
// stream: phases open before they close, the lower bound never
// decreases, the upper bound never increases, incumbents only improve
// and are always verified. Sub-synthesis events are exempt (they bound
// part covers) and skipped. Returns the top-level counts by kind.
func checkMonotone(t *testing.T, evs []obsv.ProgressEvent) map[obsv.ProgressKind]int {
	t.Helper()
	counts := map[obsv.ProgressKind]int{}
	lb, ub, best := 0, 0, 0
	var openPhase string
	for i, ev := range evs {
		if ev.Sub {
			continue
		}
		counts[ev.Kind]++
		switch ev.Kind {
		case obsv.ProgressPhaseStart:
			if openPhase != "" {
				t.Fatalf("event %d: phase %q started inside %q", i, ev.Phase, openPhase)
			}
			openPhase = ev.Phase
		case obsv.ProgressPhaseDone:
			if openPhase != ev.Phase {
				t.Fatalf("event %d: phase %q closed while %q open", i, ev.Phase, openPhase)
			}
			openPhase = ""
		case obsv.ProgressBound:
			if ev.LB < lb {
				t.Fatalf("event %d: lb regressed %d -> %d", i, lb, ev.LB)
			}
			lb = ev.LB
			if ev.UB > 0 {
				if ub > 0 && ev.UB > ub {
					t.Fatalf("event %d: ub regressed %d -> %d", i, ub, ev.UB)
				}
				ub = ev.UB
			}
		case obsv.ProgressIncumbent:
			if !ev.Verified {
				t.Fatalf("event %d: unverified incumbent %+v", i, ev)
			}
			if best > 0 && ev.Size > best {
				t.Fatalf("event %d: incumbent regressed %d -> %d", i, best, ev.Size)
			}
			best = ev.Size
		case obsv.ProgressStep:
			if best == 0 {
				t.Fatalf("event %d: dichotomic step before any incumbent", i)
			}
		}
	}
	if openPhase != "" {
		t.Fatalf("phase %q never closed", openPhase)
	}
	return counts
}

// TestProgressEmission: a converged synthesis streams ordered phases,
// monotone bounds, and verified incumbents, and lands with
// FinalLB == Size and Partial false.
func TestProgressEmission(t *testing.T) {
	f := cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
	sink := &recordingSink{}
	r, err := Synthesize(f, Options{Progress: sink})
	if err != nil {
		t.Fatal(err)
	}
	evs := sink.events()
	counts := checkMonotone(t, evs)
	if counts[obsv.ProgressPhaseStart] == 0 || counts[obsv.ProgressPhaseStart] != counts[obsv.ProgressPhaseDone] {
		t.Fatalf("phase starts/dones = %d/%d",
			counts[obsv.ProgressPhaseStart], counts[obsv.ProgressPhaseDone])
	}
	if counts[obsv.ProgressIncumbent] == 0 {
		t.Fatal("no incumbent event: the bounds phase always yields one")
	}
	if counts[obsv.ProgressBound] == 0 {
		t.Fatal("no bound events")
	}
	if r.Partial || r.FinalLB != r.Size {
		t.Fatalf("converged search reported final_lb=%d partial=%v (size %d)",
			r.FinalLB, r.Partial, r.Size)
	}
	// The phase order is the pipeline order.
	var phases []string
	for _, ev := range evs {
		if !ev.Sub && ev.Kind == obsv.ProgressPhaseStart {
			phases = append(phases, ev.Phase)
		}
	}
	order := map[string]int{"minimize": 0, "bounds": 1, "ds": 2, "search": 3}
	for i := 1; i < len(phases); i++ {
		if order[phases[i]] < order[phases[i-1]] {
			t.Fatalf("phases out of pipeline order: %v", phases)
		}
	}
}

// TestProgressPartialOnBudget: a budget too small to converge still
// yields a verified incumbent, reports the honest final bounds
// (Partial == FinalLB < Size), and the event stream stays monotone all
// the way to the early exit.
func TestProgressPartialOnBudget(t *testing.T) {
	f := cube.NewCover(5,
		cube.FromLiterals([]int{2, 3}, nil),
		cube.FromLiterals(nil, []int{2, 3}),
		cube.FromLiterals([]int{0, 1, 4}, nil),
		cube.FromLiterals(nil, []int{0, 1, 4}))
	sink := &recordingSink{}
	r, err := Synthesize(f, Options{Budget: 50 * time.Millisecond, Progress: sink})
	if err != nil {
		t.Fatal(err)
	}
	if r.Assignment == nil || !r.Assignment.Realizes(r.ISOP) {
		t.Fatal("budgeted run must still return a verified incumbent")
	}
	if r.Partial != (r.FinalLB < r.Size) {
		t.Fatalf("partial=%v but final_lb=%d size=%d", r.Partial, r.FinalLB, r.Size)
	}
	counts := checkMonotone(t, sink.events())
	if counts[obsv.ProgressIncumbent] == 0 {
		t.Fatal("no incumbent event before the budget expired")
	}
}

// TestProgressOffCostsNothing: with no sink anywhere, Synthesize runs
// exactly as before (guard for the nil-safe fast path).
func TestProgressOffCostsNothing(t *testing.T) {
	f := cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
	r, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 8 || r.FinalLB != 8 || r.Partial {
		t.Fatalf("progress-off synthesis changed: size=%d final_lb=%d partial=%v",
			r.Size, r.FinalLB, r.Partial)
	}
}
