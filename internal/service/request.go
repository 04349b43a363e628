package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/pla"
	"github.com/lattice-tools/janus/internal/sat"
)

// Request is the POST /v1/synthesize payload: a single-output target in
// PLA text plus the knobs that change what answer is acceptable. Fields
// that only tune how fast an answer arrives (worker counts) are not part
// of the request on purpose — they are server policy.
type Request struct {
	// PLA is the target in espresso PLA text (the same format cmd/janus
	// reads). Required.
	PLA string `json:"pla"`
	// Output selects which PLA output to synthesize (default 0).
	Output int `json:"output,omitempty"`
	// MaxConflicts bounds each LM SAT call (0 = unlimited).
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
	// TimeoutMS bounds the whole request, queue wait included. Zero uses
	// the server default; values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async makes POST return 202 with a job id immediately; poll
	// GET /v1/jobs/{id} for the outcome. Async jobs are never cancelled
	// by client disconnects.
	Async bool `json:"async,omitempty"`
}

// ResultJSON is the wire form of a synthesis outcome.
type ResultJSON struct {
	M          int    `json:"m"`
	N          int    `json:"n"`
	Size       int    `json:"size"`
	LB         int    `json:"lb"`
	OUB        int    `json:"oub"`
	NUB        int    `json:"nub"`
	UBMethod   string `json:"ub_method"`
	MatchedLB  bool   `json:"matched_lb"`
	LMSolved   int    `json:"lm_solved"`
	CegarIters int64  `json:"cegar_iters,omitempty"`
	ElapsedNS  int64  `json:"elapsed_ns"`
	// FinalLB is the lower bound when the search stopped; Partial marks a
	// degraded answer: the lattice is a verified mapping of the target,
	// but the budget ran out before the search could prove nothing
	// between FinalLB and Size fits.
	FinalLB int  `json:"final_lb,omitempty"`
	Partial bool `json:"partial,omitempty"`
	// Lattice is the switch grid row by row; each cell is the literal
	// controlling that switch ("a", "b'", "0", "1") using the PLA's input
	// names.
	Lattice [][]string `json:"lattice"`
}

// Response is the wire form of a job's state. For a finished job exactly
// one of Result and Error is set.
type Response struct {
	JobID string `json:"job_id,omitempty"`
	// RequestID echoes the request's id (inbound X-Request-Id, or minted
	// by the server) on success AND error bodies, so every answer —
	// including a 429 shed — can be found in the logs and the flight
	// recorder.
	RequestID string `json:"request_id,omitempty"`
	// FnKey is the budget-free canonical function key — the identity a
	// sharding tier routes on. Echoed (and as the X-Janus-Fn-Key header)
	// so external routers and debugging tools can shard and correlate
	// without re-deriving the canonical form.
	FnKey  string `json:"fn_key,omitempty"`
	Status string `json:"status"`
	// Cached says where a done answer came from: "mem", "disk",
	// "coalesced", or "" for a fresh synthesis.
	Cached string      `json:"cached,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *ResultJSON `json:"result,omitempty"`
	// Batch is the result of a batch job (POST /v1/synthesize/batch and
	// job polls for batch jobs); exactly one of Result / Batch is set on
	// a done answer.
	Batch *BatchResultJSON `json:"batch,omitempty"`
	// Progress is the live snapshot for polled jobs (GET /v1/jobs/{id}
	// with progress enabled): current phase, bounds, best incumbent.
	Progress *ProgressJSON `json:"progress,omitempty"`
}

// Job status values.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusCanceled = "canceled"
	StatusError    = "error"
)

// parsedRequest is a validated Request: the selected cover, its input
// names for rendering, and the canonical cache/coalescing keys. fnKey
// identifies the budget-free question (function + answer-shaping
// options); key adds the budget fields and is the exact coalescing and
// cache-store identity.
type parsedRequest struct {
	req   Request
	cover cube.Cover
	names []string
	fnKey string
	key   string
}

// FnKeyOf validates a request and returns its budget-free canonical
// function key — the routing identity a sharding front tier hashes on.
// It is exactly the fn_key the daemon echoes in its responses, so a
// router and its backends can never disagree on a key's owner.
func FnKeyOf(req Request) (string, error) {
	p, err := parseRequest(req)
	if err != nil {
		return "", err
	}
	return p.fnKey, nil
}

// parseRequest validates the payload and derives the canonical key.
func parseRequest(req Request) (*parsedRequest, error) {
	if req.PLA == "" {
		return nil, fmt.Errorf("missing pla")
	}
	f, err := pla.ParseString(req.PLA)
	if err != nil {
		return nil, err
	}
	if req.Output < 0 || req.Output >= len(f.Covers) {
		return nil, fmt.Errorf("output %d out of range (PLA has %d outputs)",
			req.Output, len(f.Covers))
	}
	cover := f.Covers[req.Output]
	if cover.N > encode.MaxInputs {
		return nil, fmt.Errorf("%d inputs exceeds the engine limit of %d",
			cover.N, encode.MaxInputs)
	}
	if req.MaxConflicts < 0 || req.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative budget")
	}
	fnKey := canonicalFnKey(cover)
	return &parsedRequest{
		req:   req,
		cover: cover,
		names: f.InputNames,
		fnKey: fnKey,
		key:   canonicalKey(fnKey, req),
	}, nil
}

// canonicalFnKey builds the budget-free part of a request's identity: the
// target function in canonical cube order, but none of the budget fields.
// Two PLA
// texts that spell the same cover (cube order, whitespace, comments,
// other outputs, repeated cubes) map to the same fnKey. Cubes are
// deduplicated after sorting: a cover with a repeated cube denotes the
// same function, so it must not hash differently — before this, the
// redundant spelling missed both coalescing and the result cache.
func canonicalFnKey(f cube.Cover) string {
	cubes := append([]cube.Cube(nil), f.Cubes...)
	sort.Slice(cubes, func(i, j int) bool {
		if cubes[i].Pos != cubes[j].Pos {
			return cubes[i].Pos < cubes[j].Pos
		}
		return cubes[i].Neg < cubes[j].Neg
	})
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(f.N))
	h.Write(b[:])
	prev := cube.Cube{Pos: ^uint64(0), Neg: ^uint64(0)}
	for i, c := range cubes {
		if i > 0 && c == prev {
			continue
		}
		prev = c
		binary.LittleEndian.PutUint64(b[:], c.Pos)
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], c.Neg)
		h.Write(b[:])
	}
	// The option byte once carried engine selections, all since removed;
	// it stays zero so keys from before the removal, persisted in disk
	// caches and routed on by the front, remain valid.
	h.Write([]byte{0})
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalKey is the exact cache/coalescing key: the fnKey plus the
// budget fields. TimeoutMS and MaxConflicts are part of the key because
// a tighter budget may legitimately settle for a larger lattice —
// callers with different patience are not asking the same question. The
// budget index (Server.budgetHit) layers the sound cross-budget reuse
// rules on top of this exact identity.
func canonicalKey(fnKey string, req Request) string {
	h := sha256.New()
	h.Write([]byte(fnKey))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(req.MaxConflicts))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(req.TimeoutMS))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil))
}

// maxConflictsNorm maps the request's MaxConflicts onto a totally
// ordered budget scale: 0 means unlimited, which dominates every finite
// bound.
func maxConflictsNorm(mc int64) int64 {
	if mc <= 0 {
		return math.MaxInt64
	}
	return mc
}

// coreOptions translates the request knobs into synthesis options.
// Ctx and Workers are filled in by the worker.
func (p *parsedRequest) coreOptions() core.Options {
	var opt core.Options
	opt.Encode.Limits = sat.Limits{MaxConflicts: p.req.MaxConflicts}
	return opt
}

// renderResult converts a core result to the wire form.
func renderResult(r core.Result, names []string) *ResultJSON {
	out := &ResultJSON{
		M: r.Grid.M, N: r.Grid.N, Size: r.Size,
		LB: r.LB, OUB: r.OUB, NUB: r.NUB,
		UBMethod: r.UBMethod, MatchedLB: r.MatchedLB,
		LMSolved:   r.LMSolved,
		CegarIters: r.CegarIters,
		ElapsedNS:  int64(r.Elapsed),
		FinalLB:    r.FinalLB,
		Partial:    r.Partial,
	}
	if r.Assignment != nil {
		out.Lattice = make([][]string, r.Grid.M)
		for row := 0; row < r.Grid.M; row++ {
			cells := make([]string, r.Grid.N)
			for col := 0; col < r.Grid.N; col++ {
				cells[col] = r.Assignment.At(row, col).Format(names)
			}
			out.Lattice[row] = cells
		}
	}
	return out
}

// timeout resolves the request's effective deadline budget against the
// server's default and cap.
func (p *parsedRequest) timeout(def, max time.Duration) time.Duration {
	d := time.Duration(p.req.TimeoutMS) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
