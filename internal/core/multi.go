package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/truth"
)

// Region locates one output function inside a multi-function lattice.
type Region struct {
	// Col is the first column of the region; Cols its width.
	Col, Cols int
	// Rows is the height the sub-solution occupied before padding.
	Rows int
}

// MultiLattice is a single lattice realizing several functions, one per
// column region, regions separated by constant-0 isolation columns
// (Section III-C).
type MultiLattice struct {
	Assignment *lattice.Assignment
	Regions    []Region
	Targets    []cube.Cover
}

// Rows returns the lattice height.
func (ml *MultiLattice) Rows() int { return ml.Assignment.Grid.M }

// Cols returns the lattice width.
func (ml *MultiLattice) Cols() int { return ml.Assignment.Grid.N }

// Size returns the total switch count, the paper's Table III metric.
func (ml *MultiLattice) Size() int { return ml.Assignment.Size() }

// regionAssignment extracts one region (full height) as a standalone
// lattice.
func (ml *MultiLattice) regionAssignment(i int) *lattice.Assignment {
	r := ml.Regions[i]
	g := lattice.Grid{M: ml.Rows(), N: r.Cols}
	a := lattice.NewAssignment(g)
	for row := 0; row < g.M; row++ {
		for c := 0; c < r.Cols; c++ {
			a.Set(row, c, ml.Assignment.At(row, r.Col+c))
		}
	}
	return a
}

// Verify checks that every region implements its target function.
func (ml *MultiLattice) Verify() error {
	for i, f := range ml.Targets {
		if !ml.regionAssignment(i).Realizes(f) {
			return fmt.Errorf("core: region %d does not realize its target", i)
		}
	}
	return nil
}

// MultiResult is the outcome of a multi-function synthesis.
type MultiResult struct {
	Lattice  *MultiLattice
	Parts    []Result
	LMSolved int
	// ClausesAdded, ClausesRebuilt, CegarIters, SharedReused,
	// TransferredCEX, CEXFiltered and LearntsPruned aggregate the pool's
	// counters over every LM call of the per-output searches and the
	// row-reduction phase, as in Result.
	ClausesAdded   int64
	ClausesRebuilt int64
	CegarIters     int64
	SharedReused   int64
	TransferredCEX int64
	CEXFiltered    int64
	LearntsPruned  int64
	Elapsed        time.Duration
}

// Sol formats the lattice shape like the paper's Table III ("3x135").
func (mr *MultiResult) Sol() string {
	return fmt.Sprintf("%dx%d", mr.Lattice.Rows(), mr.Lattice.Cols())
}

// SynthesizeMulti runs JANUS-MF: JANUS per output, pack into one lattice,
// then the row-reduction exploration of the DS method. With reduce=false
// it stops after packing — the paper's "straight-forward method".
func SynthesizeMulti(fns []cube.Cover, opt Options, reduce bool) (*MultiResult, error) {
	start := time.Now()
	if len(fns) == 0 {
		return nil, errors.New("core: no functions given")
	}
	root := obsv.Start(opt.Tracer, opt.TraceParent, "SynthesizeMF")
	defer root.End()
	root.SetInt("outputs", int64(len(fns)))
	if id := obsv.RequestIDFromContext(opt.Ctx); id != "" {
		root.SetStr("request_id", id)
	}
	opt.TraceParent = root // per-output Synthesize roots nest under MF
	if opt.Encode.Shared == nil {
		// One pool serves every per-output search and the shared row
		// reduction, as in Synthesize.
		opt.Encode.Shared = encode.NewSharedPool()
		defer opt.Encode.Shared.Release()
	}

	mr := &MultiResult{}
	var st lmStats
	parts := make([]*part, 0, len(fns))
	targets := make([]cube.Cover, 0, len(fns))
	for _, f := range fns {
		r, err := Synthesize(f, opt)
		if err != nil {
			return nil, err
		}
		if r.Assignment == nil {
			// Canceled (or deadline-expired) before this output's bounds
			// phase produced a mapping: there is nothing to pack.
			return nil, errors.New("core: canceled before a mapping was found")
		}
		mr.Parts = append(mr.Parts, r)
		st.noteResult(r)
		parts = append(parts, &part{isop: r.ISOP, dual: r.DualISOP, sol: r.Assignment})
		targets = append(targets, r.ISOP)
	}
	if reduce {
		sub := subOptions(opt)
		reduceSpan := root.Child("ReduceRows")
		sub.Encode.Span = reduceSpan // fixedRowSearch/trimCols LM calls
		if sub.Budget > 0 && sub.Deadline.IsZero() {
			// The row-reduction phase gets its own budget window.
			sub.Deadline = time.Now().Add(sub.Budget)
		}
		parts = reduceMultiRows(parts, sub, &st)
		reduceSpan.End()
	}
	mr.LMSolved = st.solved
	mr.ClausesAdded = st.added
	mr.ClausesRebuilt = st.rebuilt
	mr.CegarIters = st.iters
	mr.SharedReused = st.reused
	mr.TransferredCEX = st.transferred
	mr.CEXFiltered = st.filtered
	mr.LearntsPruned = st.pruned
	ml := packMulti(parts, targets)
	if err := ml.Verify(); err != nil {
		return nil, err
	}
	mr.Lattice = ml
	mr.Elapsed = time.Since(start)
	return mr, nil
}

// packMulti packs part solutions into a MultiLattice with region metadata.
func packMulti(parts []*part, targets []cube.Cover) *MultiLattice {
	a := packParts(parts)
	ml := &MultiLattice{Assignment: a, Targets: targets}
	col := 0
	for i, p := range parts {
		if i > 0 {
			col++
		}
		ml.Regions = append(ml.Regions, Region{Col: col, Cols: p.sol.Grid.N, Rows: p.sol.Grid.M})
		col += p.sol.Grid.N
	}
	return ml
}

// reduceMultiRows lowers the overall row count as in reduceRows but
// returns the updated parts (so region metadata can be rebuilt). With
// Options.MFReduceBudget > 0 the exploration stops once that many LM
// solves have been spent on it — the reduction is opportunistic, so the
// best packing found within the budget is kept.
func reduceMultiRows(parts []*part, opt Options, st *lmStats) []*part {
	cur := parts
	bcRows, bcCols := packedSize(cur)
	bc := bcRows * bcCols
	bestParts := cur
	startSolved := st.solved
	overBudget := func() bool {
		return opt.MFReduceBudget > 0 && st.solved-startSolved >= opt.MFReduceBudget
	}

	for br := bcRows; br > 3; br-- {
		next := make([]*part, len(cur))
		ok := true
		for i, p := range cur {
			if overBudget() {
				ok = false
				break
			}
			np := &part{isop: p.isop, dual: p.dual, sol: p.sol}
			m, n := p.sol.Grid.M, p.sol.Grid.N
			switch {
			case m >= br:
				sol := fixedRowSearch(np, br-1, n, n+bc, opt, st)
				if sol == nil {
					ok = false
				} else {
					np.sol = sol
				}
			case m > 1 && m < br-1 && n > 1:
				if sol := trimCols(np, br-1, n-1, opt, st); sol != nil {
					np.sol = sol
				}
			}
			if !ok {
				break
			}
			next[i] = np
		}
		if !ok {
			break
		}
		nr, nc := packedSize(next)
		if nr*nc < bc {
			bc = nr * nc
			bestParts = next
		}
		cur = next
	}
	return bestParts
}

// TruthTables evaluates every region of the lattice, useful for callers
// that want to inspect the implemented functions directly.
func (ml *MultiLattice) TruthTables() []*truth.Table {
	ts := make([]*truth.Table, len(ml.Targets))
	for i, f := range ml.Targets {
		ts[i] = ml.regionAssignment(i).Table(f.N)
	}
	return ts
}

// MinimizeOutputs is a convenience that Auto-minimizes a slice of raw
// covers, as espresso would be applied per output before JANUS-MF.
func MinimizeOutputs(fns []cube.Cover) []cube.Cover {
	out := make([]cube.Cover, len(fns))
	for i, f := range fns {
		out[i] = minimize.Auto(f)
	}
	return out
}
