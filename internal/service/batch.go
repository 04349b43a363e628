package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/pla"
)

// Batch synthesis: POST /v1/synthesize/batch routes a multi-function
// workload through core.SynthesizeMulti (JANUS-MF) instead of N
// independent jobs. The win is twofold: the per-output searches run
// with the dichotomic-search bound disabled (the packing plus the
// shared row-reduction subsumes its role, and the reduction is capped
// by batchReduceBudget), so a batch spends fewer LM solves than
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

// batchReduceBudget caps the LM solves one batch may spend in the shared
// row-reduction phase. The cap is what keeps a batch strictly cheaper
// than independent submissions: the per-output searches skip the
// dichotomic-search bounds, and the reduction must not spend back more
// than that saves.
const batchReduceBudget = 8

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
	ident
	fns    []*parsedRequest
	reduce bool
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
	pb := &parsedBatch{reduce: req.Reduce == nil || *req.Reduce}
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
	pb.ident = identOf(batchFnKey(pb.fns, pb.reduce), Request{
		MaxConflicts: req.MaxConflicts, TimeoutMS: req.TimeoutMS, Async: req.Async,
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
func (pb *parsedBatch) coreOptions() core.Options {
	opt := pb.fns[0].coreOptions()
	opt.DisableDS = true
	opt.MFReduceBudget = batchReduceBudget
	return opt
}

// lookup probes the exact batch key only. The budget index and peer
// fill are per-function mechanisms, fed by the per-function answers a
// finished batch unpacks. Every batch request probes once, so this is
// where they are counted.
func (pb *parsedBatch) lookup(_ context.Context, s *Server) (*outcome, string, bool) {
	mBatchRequests.Inc()
	return s.cached(pb.key, pb.realizes)
}

// realizes reports whether a done batch answer read from disk has one
// part per requested function and each part realizes its function, read
// back with that function's input names. Batch keys never name a single
// answer (batchFnKey), so anything else there is junk.
func (pb *parsedBatch) realizes(out *outcome) bool {
	if out.Batch == nil || len(out.Batch.Parts) != len(pb.fns) {
		return false
	}
	for i, p := range pb.fns {
		if !p.realizes(&outcome{Status: StatusDone, Result: out.Batch.Parts[i]}) {
			return false
		}
	}
	return true
}

// solve runs JANUS-MF over every function. A done batch is cached whole
// under the batch key and unpacked per function, so later single
// requests for anything it contained hit the cache instead of
// re-solving — unless the job was cancelled: as for a single job, an
// answer produced under less than its nominal budget must not enter the
// caches, while a deadline-bounded answer is the agreed product of this
// budget. The synthesis is traced under the job's span; it has no
// progress sink, since a batch job has no event stream.
func (pb *parsedBatch) solve(ctx context.Context, s *Server, j *job) (*outcome, []string) {
	j.span.SetInt("outputs", int64(len(pb.fns)))
	covers := make([]cube.Cover, len(pb.fns))
	for i, p := range pb.fns {
		covers[i] = p.cover
	}
	opt := pb.coreOptions()
	opt.Ctx = ctx
	opt.Deadline = j.deadline
	opt.TraceParent = j.span
	var mr *core.MultiResult
	var err error
	canceled := s.call(j, func() { mr, err = s.synthMulti(covers, opt, pb.reduce) })
	switch {
	case err != nil && canceled:
		mCanceled.Inc()
		return &outcome{Status: StatusCanceled, Error: "canceled"}, nil
	case err != nil:
		mJobErrors.Inc()
		return &outcome{Status: StatusError, Error: err.Error()}, nil
	}
	mJobsDone.Inc()
	j.span.SetInt("lm_solved", int64(mr.LMSolved))
	out := &outcome{Status: StatusDone, Batch: renderBatch(mr, pb)}
	if !canceled {
		s.mem.put(pb.key, out)
		s.disk.put(pb.key, out)
		s.unpackBatch(pb, mr)
	}
	return out, nil
}

// unpackBatch stores each converged per-output answer under the cache
// identity a single-function request with the same options and budget
// would use. A non-partial part's bounds met, so it is provably minimum
// in the candidate space regardless of how the search was bounded —
// exactly what a dedicated single run would have produced. Partial
// parts are skipped: the batch's shared deadline says nothing about
// what a dedicated budget would have bought that function.
func (s *Server) unpackBatch(pb *parsedBatch, mr *core.MultiResult) {
	for i, p := range pb.fns {
		r := mr.Parts[i]
		if r.Partial || r.Assignment == nil {
			continue
		}
		out := &outcome{Status: StatusDone, Result: renderResult(r, p.names)}
		s.mem.put(p.key, out)
		s.disk.put(p.key, out)
		s.recordBudget(p, r.MatchedLB)
		mBatchUnpacked.Inc()
	}
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
