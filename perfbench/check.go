package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The service workloads send seeded random single-output PLAs and check
// each answer here, independently of the program's own lattice code: the
// answer's lattice strings are parsed back into switch entries and
// simulated over every input point against the truth table of the cubes
// the request was written from.

const (
	fnInputs     = 5    // inputs of every generated service target
	maxConflicts = 1000 // per-LM-call conflict budget of every workload
)

// target is one generated request: its PLA text, the JSON request body and
// the truth table of its cubes (bit p is f(p), where input i is bit i of p).
type target struct {
	id   string
	pla  string
	body []byte
	tt   uint64
}

// fnGen draws distinct random fnInputs-input functions from one seeded
// stream. Every function is a sum of fnCubes cubes of exactly fnLits
// literals each, on random inputs with random polarity. The family is
// narrow on purpose: with up to 7 cubes of any width, per-request solve
// times spanned 0.1 ms to 1 s (mean 41 ms, CV 2.4) and half the requests
// closed on bounds alone, so the median sat between two modes and moved
// by half from seed to seed; this family spans about 0.2-30 ms (mean
// 5 ms, CV 1.0) with 85% of requests making LM solves.
type fnGen struct {
	prefix string
	rng    *rand.Rand
	seen   map[uint64]bool
	count  int
}

const (
	fnCubes = 3
	fnLits  = 3
)

func newFnGen(prefix string, seed int64) *fnGen {
	return &fnGen{prefix: prefix, rng: rand.New(rand.NewSource(seed)), seen: map[uint64]bool{}}
}

// next returns a function whose truth table no earlier draw of this stream
// had, and which is not constant.
func (g *fnGen) next() target {
	for {
		cubes := make([]string, fnCubes)
		for i := range cubes {
			c := []byte(strings.Repeat("-", fnInputs))
			for _, v := range g.rng.Perm(fnInputs)[:fnLits] {
				c[v] = "01"[g.rng.Intn(2)]
			}
			cubes[i] = string(c)
		}
		tt := cubesTable(cubes, fnInputs)
		full := uint64(1)<<(1<<fnInputs) - 1
		if tt == 0 || tt == full || g.seen[tt] {
			continue
		}
		g.seen[tt] = true
		id := fmt.Sprintf("%s-%d", g.prefix, g.count)
		g.count++
		var pla strings.Builder
		fmt.Fprintf(&pla, ".i %d\n.o 1\n", fnInputs)
		for _, c := range cubes {
			fmt.Fprintf(&pla, "%s 1\n", c)
		}
		pla.WriteString(".e\n")
		return target{id: id, pla: pla.String(), body: requestBody(pla.String()), tt: tt}
	}
}

// requestBody is the POST /v1/synthesize payload for one PLA.
func requestBody(pla string) []byte {
	return []byte(fmt.Sprintf(`{"pla":%q,"max_conflicts":%d}`, pla, maxConflicts))
}

// cubesTable evaluates a sum of PLA input cubes ("1-0..") over all points.
func cubesTable(cubes []string, n int) uint64 {
	var tt uint64
	for p := 0; p < 1<<n; p++ {
		for _, c := range cubes {
			if cubeHolds(c, p) {
				tt |= 1 << p
				break
			}
		}
	}
	return tt
}

func cubeHolds(c string, p int) bool {
	for v := 0; v < len(c); v++ {
		bit := p>>v&1 == 1
		if (c[v] == '1' && !bit) || (c[v] == '0' && bit) {
			return false
		}
	}
	return true
}

// switchCell is one parsed lattice entry: constant off/on, or input v
// taken positive or negated.
type switchCell struct {
	kind byte // '0', '1', '+' or '-'
	v    int
}

func (s switchCell) on(p int) bool {
	switch s.kind {
	case '1':
		return true
	case '+':
		return p>>s.v&1 == 1
	case '-':
		return p>>s.v&1 == 0
	}
	return false
}

// inputNames are the names janusd gives inputs of a PLA without .ilb.
func inputNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	return names
}

// parseLattice reads a result lattice, row by row, whose cells are "0",
// "1", an input name, or "!" followed by an input name.
func parseLattice(rows [][]string, names []string) ([][]switchCell, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("empty lattice")
	}
	index := make(map[string]int, len(names))
	for i, nm := range names {
		index[nm] = i
	}
	out := make([][]switchCell, len(rows))
	for r, row := range rows {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("row %d has %d cells, row 0 has %d", r, len(row), len(rows[0]))
		}
		out[r] = make([]switchCell, len(row))
		for c, s := range row {
			switch {
			case s == "0" || s == "1":
				out[r][c] = switchCell{kind: s[0]}
			default:
				kind, name := byte('+'), s
				if strings.HasPrefix(s, "!") {
					kind, name = '-', s[1:]
				}
				v, ok := index[name]
				if !ok {
					return nil, fmt.Errorf("cell (%d,%d) = %q names no input", r, c, s)
				}
				out[r][c] = switchCell{kind: kind, v: v}
			}
		}
	}
	return out, nil
}

// simulate returns the lattice's function over n inputs (n ≤ 6): f(p) is
// true when the switches on at p connect the top row to the bottom row
// through 4-connected neighbours.
func simulate(cells [][]switchCell, n int) uint64 {
	m, w := len(cells), len(cells[0])
	var tt uint64
	seen := make([]bool, m*w)
	stack := make([]int, 0, m*w)
	for p := 0; p < 1<<n; p++ {
		for i := range seen {
			seen[i] = false
		}
		stack = stack[:0]
		for c := 0; c < w; c++ {
			if cells[0][c].on(p) {
				seen[c] = true
				stack = append(stack, c)
			}
		}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r, c := cur/w, cur%w
			if r == m-1 {
				tt |= 1 << p
				break
			}
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				rr, cc := r+d[0], c+d[1]
				if rr < 0 || rr >= m || cc < 0 || cc >= w || seen[rr*w+cc] || !cells[rr][cc].on(p) {
					continue
				}
				seen[rr*w+cc] = true
				stack = append(stack, rr*w+cc)
			}
		}
	}
	return tt
}

// answer is the part of a janusd response the checker reads.
type answer struct {
	Status string      `json:"status"`
	Cached string      `json:"cached"`
	Error  string      `json:"error"`
	Result *resultWire `json:"result"`
}

type resultWire struct {
	M       int        `json:"m"`
	N       int        `json:"n"`
	Size    int        `json:"size"`
	Partial bool       `json:"partial"`
	Lattice [][]string `json:"lattice"`
}

// checkAnswer verifies a service answer against the requested function:
// done, not partial, shape consistent, and the simulated lattice equal to
// the request's truth table. It returns the parsed cells for reuse.
func checkAnswer(a *answer, t target) ([][]switchCell, error) {
	switch {
	case a.Status != "done":
		return nil, fmt.Errorf("status %q: %s", a.Status, a.Error)
	case a.Result == nil:
		return nil, fmt.Errorf("done without a result")
	case a.Result.Partial:
		return nil, fmt.Errorf("partial answer")
	}
	r := a.Result
	cells, err := parseLattice(r.Lattice, inputNames(fnInputs))
	if err != nil {
		return nil, wrongAnswer(err.Error())
	}
	if len(cells) != r.M || len(cells[0]) != r.N || r.Size != r.M*r.N {
		return nil, wrongAnswer(fmt.Sprintf("lattice is %dx%d but result says %dx%d size %d",
			len(cells), len(cells[0]), r.M, r.N, r.Size))
	}
	if got := simulate(cells, fnInputs); got != t.tt {
		return nil, wrongAnswer(fmt.Sprintf("lattice computes %#x, request is %#x", got, t.tt))
	}
	return cells, nil
}
