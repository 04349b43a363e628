package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/pla"
)

// Batch synthesis: POST /v1/synthesize/batch routes a multi-function
// workload through core.SynthesizeMulti (JANUS-MF) instead of N
// independent jobs. The win is twofold: the per-output searches run
// with the dichotomic-search bound disabled (the packing plus the
// shared row-reduction subsumes its role, and the reduction is capped
// by Config.BatchReduceBudget), so a batch spends fewer LM solves than
// the same functions submitted independently; and every converged
// per-output answer is unpacked into the single-function cache under
// exactly the key a later single request would use, so the batch
// pre-warms the whole fleet of functions it contains.
//
// A batch is one job: it occupies one worker slot, one queue slot, and
// one tenant dispatch unit, and identical concurrent batches coalesce
// through the same in-flight map as single jobs.

// maxBatchFunctions bounds one batch. A batch holds one worker for its
// whole runtime, so "more functions" trades latency for solver savings;
// past this the caller should split.
const maxBatchFunctions = 64

// maxBatchBodyBytes bounds the batch request payload: a batch carries
// up to maxBatchFunctions PLA texts, so it gets proportionally more
// room than the single-function limit.
const maxBatchBodyBytes = 4 << 20

// BatchFunction is one target inside a batch: a single-output function
// selected from a PLA text, exactly like Request.
type BatchFunction struct {
	PLA    string `json:"pla"`
	Output int    `json:"output,omitempty"`
}

// BatchRequest is the POST /v1/synthesize/batch payload. The budgets
// apply to the batch as a whole — one batch is
// one job with one deadline.
type BatchRequest struct {
	// Functions lists the targets. Exactly one of Functions / PLA must
	// be set.
	Functions []BatchFunction `json:"functions,omitempty"`
	// PLA is multi-output sugar: every output of one PLA text becomes
	// one batch function, in output order.
	PLA string `json:"pla,omitempty"`
	// Reduce runs the shared row-reduction over the packed lattice
	// (JANUS-MF's DS phase); nil means true. It is part of the batch
	// identity: reduced and unreduced batches are different answers.
	Reduce *bool `json:"reduce,omitempty"`
	// The remaining knobs mirror Request and apply to every function.
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
	TimeoutMS    int64 `json:"timeout_ms,omitempty"`
	Async        bool  `json:"async,omitempty"`
}

// BatchResultJSON is the wire form of a finished batch: the packed
// multi-function lattice's shape and cost, plus the per-output results
// index-aligned with the request's functions.
type BatchResultJSON struct {
	Outputs int `json:"outputs"`
	Rows    int `json:"rows"`
	Cols    int `json:"cols"`
	// Size is the packed lattice's total switch count; Sol formats the
	// shape like the paper's Table III ("3x135").
	Size int    `json:"size"`
	Sol  string `json:"sol"`
	// Reduced reports whether the shared row-reduction ran.
	Reduced bool `json:"reduced"`
	// LMSolved is the total LM solve count across every per-output
	// search and the shared reduction — the number to compare against
	// the sum of lm_solved over independent submissions.
	LMSolved  int   `json:"lm_solved"`
	ElapsedNS int64 `json:"elapsed_ns"`
	// Parts are the per-output results, each with its own standalone
	// lattice (the pre-packing answers, which is also what the batch
	// unpacks into the single-function cache).
	Parts []*ResultJSON `json:"parts"`
}

// parsedBatch is a validated BatchRequest: the per-function views (each
// exactly the parsedRequest a single submission of that function with
// the batch's options and budgets would produce — that equivalence is
// what makes cache unpacking sound) plus the batch's own identity.
type parsedBatch struct {
	req    BatchRequest
	fns    []*parsedRequest
	reduce bool
	// fnKey is the budget-free batch identity a sharding front routes
	// on; key adds the budget fields (the coalescing/cache identity).
	fnKey string
	key   string
}

// BatchKeyOf validates a batch request and returns its budget-free
// canonical key — the routing identity for a sharding front tier,
// mirroring FnKeyOf.
func BatchKeyOf(req BatchRequest) (string, error) {
	pb, err := parseBatch(req)
	if err != nil {
		return "", err
	}
	return pb.fnKey, nil
}

// parseBatch validates the payload and derives the canonical keys.
func parseBatch(req BatchRequest) (*parsedBatch, error) {
	fns := req.Functions
	if req.PLA != "" {
		if len(fns) > 0 {
			return nil, fmt.Errorf("set either pla or functions, not both")
		}
		f, err := pla.ParseString(req.PLA)
		if err != nil {
			return nil, err
		}
		for i := range f.Covers {
			fns = append(fns, BatchFunction{PLA: req.PLA, Output: i})
		}
	}
	if len(fns) == 0 {
		return nil, fmt.Errorf("empty batch")
	}
	if len(fns) > maxBatchFunctions {
		return nil, fmt.Errorf("batch of %d functions exceeds the limit of %d",
			len(fns), maxBatchFunctions)
	}
	pb := &parsedBatch{req: req, reduce: req.Reduce == nil || *req.Reduce}
	for i, fn := range fns {
		p, err := parseRequest(Request{
			PLA: fn.PLA, Output: fn.Output,
			MaxConflicts: req.MaxConflicts, TimeoutMS: req.TimeoutMS,
		})
		if err != nil {
			return nil, fmt.Errorf("function %d: %w", i, err)
		}
		pb.fns = append(pb.fns, p)
	}
	pb.fnKey = batchFnKey(pb.fns, pb.reduce)
	pb.key = canonicalKey(pb.fnKey, Request{
		MaxConflicts: req.MaxConflicts, TimeoutMS: req.TimeoutMS,
	})
	return pb, nil
}

// batchFnKey hashes the ordered per-function keys plus the reduce flag.
// Order matters on purpose: packing is order-dependent, so the same
// functions in a different order are a different (equally valid) batch.
// The "batch" prefix keeps the batch keyspace disjoint from single
// fnKeys even for a one-function batch.
func batchFnKey(fns []*parsedRequest, reduce bool) string {
	h := sha256.New()
	h.Write([]byte("batch\x00"))
	for _, p := range fns {
		h.Write([]byte(p.fnKey))
	}
	if reduce {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// coreOptions builds the batch's synthesis options: the shared knobs
// from any per-function view, plus the batch stance — dichotomic-search
// bounds off (packing + shared reduction subsume them) and the
// reduction capped so it can never spend more solves shrinking the
// lattice than the disabled bounds saved.
func (pb *parsedBatch) coreOptions(reduceBudget int) core.Options {
	opt := pb.fns[0].coreOptions()
	opt.DisableDS = true
	opt.MFReduceBudget = reduceBudget
	return opt
}

// timeout resolves the batch's deadline budget like a single request's.
func (pb *parsedBatch) timeout(def, max time.Duration) time.Duration {
	return pb.fns[0].timeout(def, max)
}

// renderBatch converts a core multi-result to the wire form.
func renderBatch(mr *core.MultiResult, pb *parsedBatch) *BatchResultJSON {
	out := &BatchResultJSON{
		Outputs: len(pb.fns),
		Rows:    mr.Lattice.Rows(), Cols: mr.Lattice.Cols(),
		Size: mr.Lattice.Size(), Sol: mr.Sol(),
		Reduced: pb.reduce, LMSolved: mr.LMSolved,
		ElapsedNS: int64(mr.Elapsed),
	}
	for i, r := range mr.Parts {
		out.Parts = append(out.Parts, renderResult(r, pb.fns[i].names))
	}
	return out
}
