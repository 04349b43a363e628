package encode

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/minimize"
)

// TestGoldenBuildCNF pins the monolithic formulation byte for byte: the
// sha256 of BuildCNF's DIMACS output for two Table II instances on two
// grids each, in both orientations and under each ablation. Clause order,
// literal order within a clause and variable numbering all feed the
// digest, so a change to the clause generator that keeps these digests
// keeps the formulation the paper describes.
func TestGoldenBuildCNF(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
	}{
		{"auto", Options{}},
		{"primal", Options{Mode: PrimalOnly}},
		{"dual", Options{Mode: DualOnly}},
		{"nofacts", Options{DisableFacts: true}},
		{"nodegree", Options{DisableDegree: true}},
		{"nosymmetry", Options{DisableSymmetry: true}},
		{"strict", Options{StrictProducts: true}},
		{"fulltl", Options{FullTL: true}},
	}
	want := map[string]string{
		"mp2d_06/4x3/auto":       "33c7f1de689d7e8b79e8ef0ccd7544662c79de64f06c28062d4fd2cd0a85b758",
		"mp2d_06/4x3/primal":     "33c7f1de689d7e8b79e8ef0ccd7544662c79de64f06c28062d4fd2cd0a85b758",
		"mp2d_06/4x3/dual":       "b19a79adc0bfe8c312d384b2a297630869542c36f0ec85481e9d97af6f7ab743",
		"mp2d_06/4x3/nofacts":    "621f0b877699e31e5c07f466c5e6642285e0a51257a5624ea04dfb3ec3f08c52",
		"mp2d_06/4x3/nodegree":   "33c7f1de689d7e8b79e8ef0ccd7544662c79de64f06c28062d4fd2cd0a85b758",
		"mp2d_06/4x3/nosymmetry": "099b74b9076f764c76ffc91c1e2a3127e07d51e74b18ce4a5c3a2f11b1827b1d",
		"mp2d_06/4x3/strict":     "eee9c2dfdcf0e4e50ee5bfa886e398b25d86166600b188332852d882e356f32e",
		"mp2d_06/4x3/fulltl":     "9b7a759e4fcebfb4d507e9dfb8d49ce6fcfc67651f429ee8742ced0d9cc6fe68",
		"mp2d_06/3x3/auto":       "a374f6e8af5cde86ed970d796087ac912042bcd6b2a6d979e5110d63e6f96fe0",
		"mp2d_06/3x3/primal":     "a374f6e8af5cde86ed970d796087ac912042bcd6b2a6d979e5110d63e6f96fe0",
		"mp2d_06/3x3/dual":       "381fce1cd04ab796864d8d5a50b593b9d5e1f076cf23a29bae91b07c323f5638",
		"mp2d_06/3x3/nofacts":    "94de1a84ab7c73fafda30a88be3926f8e84f0bb351b33d0d3e84887b214b80dd",
		"mp2d_06/3x3/nodegree":   "33f1d132338fab35c253bcb3694681beb917eb7ec99bfeb58cbc32123811018b",
		"mp2d_06/3x3/nosymmetry": "03d3329218bc9eadb10ebc8c0ae27d2e681b2649f6e7a87d6edf7d441f57316a",
		"mp2d_06/3x3/strict":     "87fe0612771c1fd777bf1449cf38cd8b86519baaea8796baa438234fb57f3d79",
		"mp2d_06/3x3/fulltl":     "0fb67bcc1213eaa0a74c0dbc3e5db01046994566078b16232383ebda51e325ff",
		"dc1_03/4x3/auto":        "79e0d903641c8296f135fd66500a03780d923cc0af86f6d78f85947b35cbfa55",
		"dc1_03/4x3/primal":      "79e0d903641c8296f135fd66500a03780d923cc0af86f6d78f85947b35cbfa55",
		"dc1_03/4x3/dual":        "7481c404d07f7a3d6510d1c3919c7a99cfa8396932928a09b43fc24eff28273d",
		"dc1_03/4x3/nofacts":     "7a0c7bd15298ed1181d6fd1b77ee3dbb088024977631f37842f6f4c1efd5ffd1",
		"dc1_03/4x3/nodegree":    "79e0d903641c8296f135fd66500a03780d923cc0af86f6d78f85947b35cbfa55",
		"dc1_03/4x3/nosymmetry":  "b83e3d44fd6d495147faa2dfd151c77d9f4fd47998ffe5efa039b3ba620ab188",
		"dc1_03/4x3/strict":      "eaa436f2634af1e6548d2a493a32a89c35b70da4d63f761c77956340d7668337",
		"dc1_03/4x3/fulltl":      "79e0d903641c8296f135fd66500a03780d923cc0af86f6d78f85947b35cbfa55",
		"dc1_03/2x6/auto":        "b28f263261fa611c886e57eb312f3b742b4ddbc6defd8f66635e0f7fdd5aa200",
		"dc1_03/2x6/primal":      "b28f263261fa611c886e57eb312f3b742b4ddbc6defd8f66635e0f7fdd5aa200",
		"dc1_03/2x6/dual":        "6cadbd3f3b4e78bf14d74e91d5e8577461399ec59a612ab2a205854989e7296b",
		"dc1_03/2x6/nofacts":     "0cd2e8fb4201d80ce825034675d85a02626547f600bebaf1578fb43d25e70a5e",
		"dc1_03/2x6/nodegree":    "b28f263261fa611c886e57eb312f3b742b4ddbc6defd8f66635e0f7fdd5aa200",
		"dc1_03/2x6/nosymmetry":  "80755ad8efb58d52a87a16aa6469b51fc5139824252d37fb7c22ff749d15e29e",
		"dc1_03/2x6/strict":      "e0b9bc8f72fa9146a4fd1fc7c14e2496c9fe79f891a0d58c932dd63ac5dc1872",
		"dc1_03/2x6/fulltl":      "b28f263261fa611c886e57eb312f3b742b4ddbc6defd8f66635e0f7fdd5aa200",
	}
	for _, inst := range []struct {
		name  string
		grids []lattice.Grid
	}{
		{"mp2d_06", []lattice.Grid{{M: 4, N: 3}, {M: 3, N: 3}}},
		{"dc1_03", []lattice.Grid{{M: 4, N: 3}, {M: 2, N: 6}}},
	} {
		f, ok := benchdata.Lookup(inst.name).Function()
		if !ok {
			t.Fatalf("%s: generator missed its profile", inst.name)
		}
		isop, dual := minimize.AutoDual(f)
		for _, g := range inst.grids {
			for _, v := range variants {
				b, _, err := BuildCNF(isop, dual, g, v.opt)
				if err != nil {
					t.Fatalf("%s %v %s: %v", inst.name, g, v.name, err)
				}
				var buf bytes.Buffer
				if err := b.WriteDIMACS(&buf); err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%v/%s", inst.name, g, v.name)
				got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
				if got != want[key] {
					t.Errorf("%s: digest %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
