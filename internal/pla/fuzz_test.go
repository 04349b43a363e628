package pla

import (
	"strings"
	"testing"
)

// FuzzParse checks the PLA parser never panics and that accepted files
// round-trip through Write/Parse to equivalent covers.
func FuzzParse(f *testing.F) {
	f.Add(".i 2\n.o 1\n11 1\n.e\n")
	f.Add(".i 4\n.o 2\n.ilb a b c d\n.ob f g\n1--0 10\n01-- 11\n.e\n")
	f.Add(".i 1\n.o 1\n- 1\n")
	f.Add("p cnf nonsense")
	f.Add(".i 3\n.o 1\n1-1 1\n0-0 1\n")
	f.Add(".i 0\n.o 200000\n")
	f.Add(".i 2x\n.o 1\n11 1\n.e\n")
	f.Add(".i 2\n.o 1abc\n11 1\n.e\n")
	f.Add(".i 0x2\n.o 1\n.e\n")
	f.Fuzz(func(t *testing.T, input string) {
		pf, err := ParseString(input)
		if err != nil {
			return
		}
		text := Format(pf)
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("rewritten PLA does not parse: %v\n%s", err, text)
		}
		if back.Inputs != pf.Inputs || back.Outputs != pf.Outputs {
			t.Fatal("round trip changed dimensions")
		}
		for o := range pf.Covers {
			if pf.Inputs <= 12 && !pf.Covers[o].Equiv(back.Covers[o]) {
				t.Fatalf("output %d drifted", o)
			}
		}
	})
}

func TestFuzzSeedsViaUnit(t *testing.T) {
	// Keep the seed corpus exercised in normal test runs too.
	for _, s := range []string{
		".i 2\n.o 1\n11 1\n.e\n",
		".i 1\n.o 1\n- 1\n",
	} {
		if _, err := ParseString(s); err != nil {
			t.Fatalf("seed %q failed: %v", s, err)
		}
	}
	if _, err := ParseString(strings.Repeat("-", 100)); err == nil {
		t.Fatal("garbage accepted")
	}
}
