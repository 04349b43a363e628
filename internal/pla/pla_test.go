package pla

import (
	"runtime"
	"strings"
	"testing"

	"github.com/lattice-tools/janus/internal/cube"
)

const sample = `
# a tiny two-output PLA
.i 4
.o 2
.ilb a b c d
.ob f g
.p 3
1--0 10
01-- 11
-111 01
.e
`

func TestParseSample(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if f.Inputs != 4 || f.Outputs != 2 {
		t.Fatalf("dims = %d/%d", f.Inputs, f.Outputs)
	}
	if len(f.Covers[0].Cubes) != 2 || len(f.Covers[1].Cubes) != 2 {
		t.Fatalf("cover sizes = %d/%d", len(f.Covers[0].Cubes), len(f.Covers[1].Cubes))
	}
	want := cube.FromLiterals([]int{0}, []int{3}) // 1--0
	if f.Covers[0].Cubes[0] != want {
		t.Fatalf("first cube = %v", f.Covers[0].Cubes[0])
	}
	if f.InputNames[0] != "a" || f.OutputNames[1] != "g" {
		t.Fatal("names lost")
	}
}

func TestParsePackedRows(t *testing.T) {
	f, err := ParseString(".i 2\n.o 1\n111\n.e\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Covers[0].Cubes) != 1 || f.Covers[0].Cubes[0] != cube.FromLiterals([]int{0, 1}, nil) {
		t.Fatalf("packed row parse wrong: %v", f.Covers[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		".i 2\n.o 1\n1 1\n.e\n",    // wrong input width
		".i 2\n.o 1\nx- 1\n.e\n",   // bad char
		"11 1\n.e\n",               // cube before .i/.o
		".i 2\n.o 1\n.magic\n.e\n", // unknown directive
		".i 99\n.o 1\n.e\n",        // too many inputs
		".i 2\n.o 1\n-- 1 extra\n", // width mismatch after join
	}
	for i, s := range cases {
		if _, err := ParseString(s); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(f)
	g, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	for o := range f.Covers {
		if !f.Covers[o].Equiv(g.Covers[o]) {
			t.Fatalf("output %d drifted after round trip", o)
		}
	}
}

func TestMissingHeader(t *testing.T) {
	if _, err := ParseString("\n"); err == nil {
		t.Fatal("empty file should fail")
	}
}

func TestDefaultNames(t *testing.T) {
	f, err := ParseString(".i 2\n.o 1\n-- 1\n.e\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.InputNames[1] != "x1" || f.OutputNames[0] != "f0" {
		t.Fatalf("default names wrong: %v %v", f.InputNames, f.OutputNames)
	}
	if !f.Covers[0].IsOne() {
		t.Fatal("dash-only cube should be constant 1")
	}
}

func TestWriteSharedCubes(t *testing.T) {
	// Two outputs sharing one cube must produce a single row with "11".
	f := &File{Inputs: 2, Outputs: 2}
	c := cube.FromLiterals([]int{0}, nil)
	f.Covers = []cube.Cover{
		cube.NewCover(2, c),
		cube.NewCover(2, c),
	}
	f, err := f.finish()
	if err != nil {
		t.Fatal(err)
	}
	text := Format(f)
	if !strings.Contains(text, "1- 11") {
		t.Fatalf("shared cube not merged:\n%s", text)
	}
}

// TestParseSmallAllocation: a request-sized PLA must not pay for the
// scanner's 1 MiB line limit up front. The service parses every request
// body (and the front parses it again to route), so a buffer sized to
// the limit cost 1 MiB allocated and zeroed per request.
func TestParseSmallAllocation(t *testing.T) {
	const in = ".i 3\n.o 1\n1-0 1\n011 1\n.e\n"
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ParseString(in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("parsing a 5-line PLA allocated %d bytes", per)
	}
}

// TestParseLongLine: lines beyond bufio's 64 KiB default still parse, up
// to the 1 MiB limit.
func TestParseLongLine(t *testing.T) {
	in := ".i 2\n.o 1\n# " + strings.Repeat("x", 100<<10) + "\n1- 1\n.e\n"
	f, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Covers[0].Cubes) != 1 {
		t.Fatalf("cover = %v", f.Covers[0])
	}
}
