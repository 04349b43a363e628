// Engine comparison: decide the same lattice mapping problem with the
// paper's monolithic truth-table formulation and with the CEGAR engine
// the synthesis search runs, showing the lazy engine constrains far fewer
// entries (visible as variables) while agreeing on the answer.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/lattice-tools/janus"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/sat"
)

func main() {
	// A 6-input function: the monolithic encoding constrains all 64
	// truth-table entries; CEGAR discovers how few actually matter.
	f := janus.NewCover(6,
		janus.Product([]int{0, 1, 2}, nil),
		janus.Product(nil, []int{3, 4}),
		janus.Product([]int{5, 0}, []int{2}))
	isop, dual := minimize.AutoDual(f)

	// The smallest lattice the search settles on, decided both ways.
	res, err := janus.Synthesize(f, janus.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search: %dx%d (%d switches), %d LM problems\n",
		res.Grid.M, res.Grid.N, res.Size, res.LMSolved)

	engines := []struct {
		name  string
		solve func(isop, dual janus.Cover, g janus.Grid, opt encode.Options) (encode.Result, error)
	}{
		{"monolithic", encode.SolveLM},
		{"CEGAR", encode.SolveLMCegar},
	}
	for _, e := range engines {
		start := time.Now()
		r, err := e.solve(isop, dual, res.Grid, encode.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if r.Status != sat.Sat || !r.Assignment.Realizes(f) {
			log.Fatalf("%s: %v on %v, want a verified mapping", e.name, r.Status, res.Grid)
		}
		fmt.Printf("%-10s: %v in %v, %d vars, %d clauses, %d SAT calls\n",
			e.name, r.Status, time.Since(start).Round(time.Microsecond),
			r.Vars, r.Clauses, max(r.CegarIters, 1))
	}
	fmt.Println("both engines verified against the full truth table")
}
