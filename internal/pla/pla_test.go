package pla

import (
	"bufio"
	"errors"
	"fmt"
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
		".i 2\n.o 1\n1 1\n.e\n",     // wrong input width
		".i 2\n.o 1\nx- 1\n.e\n",    // bad char
		"11 1\n.e\n",                // cube before .i/.o
		".i 2\n.o 1\n.magic\n.e\n",  // unknown directive
		".i 99\n.o 1\n.e\n",         // too many inputs
		".i 2\n.o 1\n-- 1 extra\n",  // width mismatch after join
		".i 2x\n.o 1\n11 1\n.e\n",   // input count with trailing garbage
		".i 2\n.o 1abc\n11 1\n.e\n", // output count with trailing garbage
		".i 0x2\n.o 1\n.e\n",        // hexadecimal input count
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
// to the 1 MiB limit, through ParseString and through Parse alike; a
// longer line fails with bufio.ErrTooLong.
func TestParseLongLine(t *testing.T) {
	in := ".i 2\n.o 1\n# " + strings.Repeat("x", 100<<10) + "\n1- 1\n.e\n"
	f, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Covers[0].Cubes) != 1 {
		t.Fatalf("cover = %v", f.Covers[0])
	}
	limit := ".i 2\n.o 1\n#" + strings.Repeat("x", maxLine-2) + "\n1- 1\n"
	for _, parse := range []func(string) (*File, error){
		ParseString,
		func(s string) (*File, error) { return Parse(strings.NewReader(s)) },
	} {
		if _, err := parse(limit); err != nil {
			t.Fatalf("a line of %d bytes: %v", maxLine-1, err)
		}
		if _, err := parse(strings.Replace(limit, "#", "##", 1)); !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("a line of %d bytes: %v, want %v", maxLine, err, bufio.ErrTooLong)
		}
	}
}

// TestParseOutputCountBounded: the .o count is bounded before the parser
// allocates a cover per output. A 20-byte body declaring ten million
// outputs once allocated over a gigabyte; it must now fail cheaply.
func TestParseOutputCountBounded(t *testing.T) {
	const in = ".i 1\n.o 10000000\n.e\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseString(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ten million outputs accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("rejecting the output count allocated %d bytes", n)
	}
	at := fmt.Sprintf(".i 1\n.o %d\n1 %s\n.e\n", MaxOutputs, strings.Repeat("1", MaxOutputs))
	if f, err := ParseString(at); err != nil || len(f.Covers) != MaxOutputs {
		t.Fatalf("MaxOutputs outputs: %v", err)
	}
	if _, err := ParseString(fmt.Sprintf(".i 1\n.o %d\n.e\n", MaxOutputs+1)); err == nil {
		t.Fatal("MaxOutputs+1 outputs accepted")
	}
}

// TestParseRepeatedHeader: a second .i or .o is an error. A second .o
// used to reallocate the covers and silently drop every cube read before
// it.
func TestParseRepeatedHeader(t *testing.T) {
	for _, in := range []string{
		".i 2\n.o 1\n11 1\n.o 1\n00 1\n.e\n",
		".i 2\n.o 1\n.o 2\n.e\n",
		".i 2\n.i 3\n.o 1\n.e\n",
		".i 2\n.o 1\n11 1\n.i 2\n.e\n",
	} {
		if _, err := ParseString(in); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}
