package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, pm int }{
		{0, 0}, {19, 0}, {20, 500}, {39, 500}, {40, 750}, {99, 750},
		{100, 900}, {999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPM(c.n); got != c.pm {
			t.Errorf("tailPM(%d) = %d, want %d", c.n, got, c.pm)
		}
		if c.pm > 0 && beyond(c.n, c.pm) < 10 {
			t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, c.pm, beyond(c.n, c.pm))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(append([]float64(nil), xs...), 500); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(append([]float64(nil), xs...), 900); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// and01 is x0·x1; or01 is x0 + x1.
var (
	and01 = target{id: "and", tt: cubesTable([]string{"11---"}, fnInputs)}
	or01  = target{id: "or", tt: cubesTable([]string{"1----", "-1---"}, fnInputs)}
)

func done(lat [][]string) *answer {
	return &answer{Status: "done", Result: &resultWire{M: len(lat), N: len(lat[0]), Size: len(lat) * len(lat[0]), Lattice: lat}}
}

func TestCheckerAcceptsRealizingLattices(t *testing.T) {
	// A column conducts only when every switch is on (AND); a row when any
	// one is (OR).
	if _, err := checkAnswer(done([][]string{{"x0"}, {"x1"}}), and01); err != nil {
		t.Errorf("AND column: %v", err)
	}
	if _, err := checkAnswer(done([][]string{{"x0", "x1"}}), or01); err != nil {
		t.Errorf("OR row: %v", err)
	}
	// x0·x1 + !x0·!x1 as a 2x2 lattice with a blocking constant column.
	xnor := target{tt: cubesTable([]string{"11---", "00---"}, fnInputs)}
	if _, err := checkAnswer(done([][]string{{"x0", "0", "!x0"}, {"x1", "0", "!x1"}}), xnor); err != nil {
		t.Errorf("XNOR lattice: %v", err)
	}
}

func TestCheckerCountsWrongLatticeAsFailed(t *testing.T) {
	res := newRunResult(nil)
	_, err := checkAnswer(done([][]string{{"x0"}, {"!x1"}}), and01)
	var w wrongAnswer
	if !errors.As(err, &w) {
		t.Fatalf("wrong lattice: err = %v, want a wrongAnswer", err)
	}
	res.record("op-1", 0, time.Millisecond, 0, err)
	if res.failed != 1 || res.wrong != 1 || res.ok != 0 {
		t.Fatalf("failed=%d wrong=%d ok=%d, want 1 1 0", res.failed, res.wrong, res.ok)
	}
	if len(res.failures) != 1 || res.failures[0][:9] != "FAIL op-1" {
		t.Errorf("failure not reported with its op id: %q", res.failures)
	}
	for _, c := range []struct {
		name string
		a    *answer
	}{
		{"unknown input", done([][]string{{"y7"}})},
		{"ragged rows", done([][]string{{"x0", "x1"}, {"x1"}})},
		{"shape mismatch", &answer{Status: "done", Result: &resultWire{M: 1, N: 1, Size: 1, Lattice: [][]string{{"x0"}, {"x1"}}}}},
	} {
		if _, err := checkAnswer(c.a, and01); !errors.As(err, &w) {
			t.Errorf("%s: err = %v, want a wrongAnswer", c.name, err)
		}
	}
	// Failures that are not wrong answers: errors and partial answers.
	partial := done([][]string{{"x0"}, {"x1"}})
	partial.Result.Partial = true
	for _, a := range []*answer{partial, {Status: "error", Error: "boom"}} {
		if _, err := checkAnswer(a, and01); err == nil || errors.As(err, &w) {
			t.Errorf("status %q partial=%v: err = %v, want a plain failure", a.Status, a.Result != nil, err)
		}
	}
}

func TestCyclerCoversWholePasses(t *testing.T) {
	for _, minPasses := range []int{1, 3} {
		ops := 0
		c := newCycler(7, minPasses, 42, func() bool { return ops >= 10 })
		seen := map[int]int{}
		for {
			pass, i, ok := c.next()
			if !ok {
				break
			}
			if pass != ops/7 {
				t.Fatalf("op %d is in pass %d, want %d", ops, pass, ops/7)
			}
			seen[i]++
			ops++
		}
		passes := max(minPasses, 2) // 10 ops end inside pass 2
		if ops != 7*passes || c.done() != passes {
			t.Errorf("minPasses=%d: %d ops over %d passes, want %d over %d", minPasses, ops, c.done(), 7*passes, passes)
		}
		for i := 0; i < 7; i++ {
			if seen[i] != passes {
				t.Errorf("input %d ran %d times, want %d", i, seen[i], passes)
			}
		}
	}
	// The same seed gives the same order.
	a, b := newCycler(5, 1, 9, func() bool { return true }), newCycler(5, 1, 9, func() bool { return true })
	for k := 0; k < 5; k++ {
		_, i, _ := a.next()
		_, j, _ := b.next()
		if i != j {
			t.Fatalf("seeded orders differ at %d", k)
		}
	}
}

func TestGeneratorIsSeededAndDistinct(t *testing.T) {
	a, b := newFnGen("t", 7), newFnGen("t", 7)
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		x, y := a.next(), b.next()
		if x.pla != y.pla {
			t.Fatalf("draw %d differs between equal seeds", i)
		}
		if seen[x.tt] {
			t.Fatalf("draw %d repeats a function", i)
		}
		seen[x.tt] = true
	}
	if newFnGen("t", 8).next().pla == newFnGen("t", 7).next().pla {
		t.Error("different seeds drew the same first function")
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.file), len(c.code))
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestHostScaling(t *testing.T) {
	// Segment 0 ran at the nominal speed; segment 1 between marks of one
	// and two nominal task times, so the host ran it 1.5x slower.
	c := &segClock{
		walls:  []time.Duration{time.Second, 3 * time.Second},
		stolen: []float64{0, 0},
		marks:  []float64{refNominalMS, refNominalMS, 2 * refNominalMS},
	}
	if got := c.scale(0); got != 1 {
		t.Errorf("scale(0) = %v, want 1", got)
	}
	if got := c.scale(1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("scale(1) = %v, want 2/3", got)
	}
	if got := c.elapsed(); got != 3*time.Second {
		t.Errorf("elapsed = %v, want 3s (1s + 3s at 2/3)", got)
	}
	var none *segClock
	if got := none.scale(5); got != 1 {
		t.Errorf("nil clock scale = %v, want 1 (raw)", got)
	}
	// A segment whose vCPUs lost a fifth of their busy time to steal ran
	// a fifth of its wall time on no CPU.
	stolen := &segClock{stolen: []float64{0.2}, marks: []float64{refNominalMS, refNominalMS}}
	if got := stolen.scale(0); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("scale with 20%% stolen = %v, want 0.8", got)
	}
	if got := stolenShare(cpuTimes{total: 1000, steal: 10, idle: 600}, cpuTimes{total: 1200, steal: 30, idle: 700}); got != 0.2 {
		t.Errorf("stolenShare = %v, want 20 stolen of 100 busy ticks", got)
	}

	// One op per segment: scaled latencies and throughput follow the
	// marks, raw ones do not.
	res := newRunResult([]float64{0.010})
	res.setupClk = &segClock{stolen: []float64{0}, marks: []float64{2 * refNominalMS, 2 * refNominalMS}}
	res.loopClk = c
	res.record("a", 0, 10*time.Millisecond, 4, nil)
	res.record("b", 1, 30*time.Millisecond, 4, nil)
	res.elapsed = 4 * time.Second
	raw, scaled := res.endToEndMetrics(false), res.endToEndMetrics(true)
	for _, c := range []struct {
		name      string
		raw, want float64
	}{
		{"setup_s", 0.010, 0.005},
		{"throughput_per_s", 0.5, 2.0 / 3},
		{"lat_p50_ms", 10, 10},
		{"lat_p75_ms", 30, 20},
		{"switches_mean", 4, 4},
	} {
		if math.Abs(raw[c.name]-c.raw) > 1e-9 || math.Abs(scaled[c.name]-c.want) > 1e-9 {
			t.Errorf("%s: raw %v scaled %v, want %v and %v", c.name, raw[c.name], scaled[c.name], c.raw, c.want)
		}
	}
}

func TestSegClockAdmitsOpsAcrossCuts(t *testing.T) {
	c := newSegClock()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < svcCallers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				seg := c.enter()
				if seg != len(c.walls) { // a cut cannot close the segment of an op in flight
					t.Errorf("op in segment %d while %d segments are closed", seg, len(c.walls))
				}
				c.leave()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		c.cut()
	}
	close(stop)
	wg.Wait()
	c.end()
	if len(c.walls) != 4 || len(c.stolen) != 4 || len(c.marks) != 5 {
		t.Fatalf("%d segments, %d stolen shares and %d marks, want 4, 4 and 5", len(c.walls), len(c.stolen), len(c.marks))
	}
	for i, m := range c.marks {
		if m <= 0 {
			t.Errorf("mark %d = %v ms", i, m)
		}
	}
}
