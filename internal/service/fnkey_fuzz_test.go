package service

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzFnKey checks the canonical function key against the spellings a
// PLA allows for one function: for any body the request parser accepts,
// permuting its cube lines and repeating one of them must leave FnKeyOf
// unchanged. The seeds are TestFnKeyGolden's inputs and one PLA with
// input names, which are part of the key.
func FuzzFnKey(f *testing.F) {
	for _, pla := range []string{
		".i 3\n.o 1\n110 1\n0-1 1\n.e\n",
		".i 3\n.o 1\n0-1 1\n110 1\n.e\n",
		".i 3\n.o 1\n110 1\n110 1\n0-1 1\n.e\n",
		".i 4\n.o 1\n1111 1\n0000 1\n.e\n",
		".i 3\n.o 1\n.ilb a b c\n110 1\n0-1 1\n.e\n",
	} {
		f.Add(pla, 0, int64(1))
	}
	f.Fuzz(func(t *testing.T, pla string, output int, seed int64) {
		req := Request{PLA: pla, Output: output}
		key, err := FnKeyOf(req)
		if err != nil {
			return
		}
		lines := strings.Split(pla, "\n")
		var cubes []int // the lines the parser reads as cube rows
		for i, line := range lines {
			text := line
			if j := strings.IndexByte(text, '#'); j >= 0 {
				text = text[:j]
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			if fields[0] == ".e" || fields[0] == ".end" {
				break
			}
			if !strings.HasPrefix(fields[0], ".") {
				cubes = append(cubes, i)
			}
		}
		if len(cubes) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		rows := make([]string, len(cubes))
		for i, j := range rng.Perm(len(cubes)) {
			rows[i] = lines[cubes[j]]
		}
		spelled := append([]string(nil), lines...)
		for i, at := range cubes {
			spelled[at] = rows[i]
		}
		dup := cubes[rng.Intn(len(cubes))]
		spelled[dup] += "\n" + spelled[dup]
		req.PLA = strings.Join(spelled, "\n")
		got, err := FnKeyOf(req)
		if err != nil {
			t.Fatalf("respelled PLA rejected: %v\n%q", err, req.PLA)
		}
		if got != key {
			t.Fatalf("fn_key changed under cube permutation and duplication\n%q\n%q", pla, req.PLA)
		}
	})
}
