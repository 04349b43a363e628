package lattice

import (
	"math/rand"
	"testing"
)

// randomAssignment fills a grid with switches that are constant 1 with
// probability ones, constant 0 with probability zeros, and otherwise an
// input literal of one of nInputs inputs, either polarity.
func randomAssignment(rng *rand.Rand, g Grid, nInputs int, ones, zeros float64) *Assignment {
	a := NewAssignment(g)
	for i := range a.Entries {
		switch p := rng.Float64(); {
		case p < ones:
			a.Entries[i] = Entry{Kind: Const1}
		case p < ones+zeros:
			a.Entries[i] = Entry{Kind: Const0}
		default:
			a.Entries[i] = Entry{Kind: PosVar + EntryKind(rng.Intn(2)), Var: rng.Intn(nInputs)}
		}
	}
	return a
}

// TestWordTableMatchesConnectivity compares the word-parallel Table with
// EvalConnectivity at every point, on random assignments of every grid
// from 1×1 to 9×9 and of grids over 64 cells, for 1 to 8 inputs, so that
// tables span one word, partly or whole, and several. The mix of constant
// 1 switches lets paths wind up, down, left and right, so a flood fill
// missing any direction disagrees.
func TestWordTableMatchesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var grids []Grid
	for m := 1; m <= 9; m++ {
		for n := 1; n <= 9; n++ {
			grids = append(grids, Grid{M: m, N: n})
		}
	}
	grids = append(grids, Grid{M: 3, N: 40}, Grid{M: 40, N: 3}, Grid{M: 12, N: 11})
	mix := [][2]float64{{0.5, 0.1}, {0.35, 0.25}, {0.1, 0.1}}
	points := 0
	for _, g := range grids {
		for nIn := 1; nIn <= 8; nIn++ {
			for k, ones := range mix {
				a := randomAssignment(rng, g, nIn, ones[0], ones[1])
				tab := a.Table(nIn)
				for p := uint64(0); p < tab.Size(); p++ {
					if want := a.EvalConnectivity(p); tab.Get(p) != want {
						t.Fatalf("%v, %d inputs, mix %d, point %d: Table %v, connectivity %v\n%v",
							g, nIn, k, p, tab.Get(p), want, a)
					}
					points++
				}
				for w := 0; w < tab.Words(); w++ {
					if got := a.Word(w); got&mask(nIn) != tab.Word(w) {
						t.Fatalf("%v, %d inputs: Word(%d) = %#x, Table word %#x", g, nIn, w, got, tab.Word(w))
					}
				}
			}
		}
	}
	t.Logf("%d points checked", points)
}

// mask is the mask of a table word's points for nIn inputs.
func mask(nIn int) uint64 {
	if nIn < 6 {
		return 1<<(1<<nIn) - 1
	}
	return ^uint64(0)
}

// TestWordAllocFree: evaluating a word of a lattice of at most 64 switches
// allocates nothing.
func TestWordAllocFree(t *testing.T) {
	a := randomAssignment(rand.New(rand.NewSource(72)), Grid{M: 8, N: 8}, 7, 0.3, 0.1)
	if n := testing.AllocsPerRun(50, func() { a.Word(1) }); n != 0 {
		t.Fatalf("Word allocated %v times per call", n)
	}
}
