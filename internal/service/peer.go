package service

import (
	"context"
	"strings"
	"time"
)

// Peer cache fill: when a front tier reshards (a backend joins or
// leaves), keys change owners, and the new owner's caches are cold for
// functions the previous owner already solved. Rather than re-running an
// hours-long synthesis, the request can carry an X-Janus-Fill-From hint
// naming the previous owner; on a full cache miss the new owner asks
// that peer's cache over GET /v1/cache/{fnKey} and, when the peer holds
// a budget-compatible answer, adopts it — stored under the peer's exact
// (function, budget) key so the budget-reuse rules carry over unchanged
// — and serves it with Cached == "peer". A miss or an unreachable peer
// just falls through to a normal synthesis, so the hint can never make a
// request fail.
//
// The lookup endpoint applies the same budget-compatibility rules as
// the local request path (Server.probe: exact key, then the budget
// index), so a peer never hands out an answer the asking daemon could
// not have served itself.
//
// The hint is untrusted client input: anyone who can POST /v1/synthesize
// controls the header. A daemon that dereferenced it blindly could be
// steered into GETs against internal networks (SSRF) and — far worse —
// would adopt whatever CacheEntry the "peer" returned into both cache
// tiers, persistently poisoning answers served to every other client.
// So fills only ever go to URLs on the configured Peers allowlist
// (janusd -peers); with no allowlist the hint is inert.

// CacheEntry is the GET /v1/cache/{fnKey} wire form: one finished
// answer plus the budget identity it was computed under, so the
// receiving daemon can index it exactly as the peer did.
type CacheEntry struct {
	FnKey string `json:"fn_key"`
	// Key is the exact (function, budget) cache key the answer is stored
	// under — identical across daemons because it is content-derived.
	Key string `json:"key"`
	// MaxConflictsNorm / TimeoutNS are the normalized budget the answer
	// was computed with (maxConflictsNorm scale; effective timeout).
	MaxConflictsNorm int64 `json:"max_conflicts_norm"`
	TimeoutNS        int64 `json:"timeout_ns"`
	MatchedLB        bool  `json:"matched_lb"`
	// Status/Result mirror the cached outcome; only done answers are
	// ever returned.
	Status string      `json:"status"`
	Result *ResultJSON `json:"result,omitempty"`
}

// peerFillTimeout bounds the whole peer lookup; a slow peer must not
// meaningfully delay the fallback synthesis.
const peerFillTimeout = 3 * time.Second

// fillFromKey carries the X-Janus-Fill-From hint through the context.
type fillFromKey struct{}

// ContextWithFillFrom attaches a peer-fill hint: the base URL of the
// daemon that owned this request's shard before the last reshard.
func ContextWithFillFrom(ctx context.Context, peerURL string) context.Context {
	if peerURL == "" {
		return ctx
	}
	return context.WithValue(ctx, fillFromKey{}, peerURL)
}

// fillFrom reads the peer-fill hint, if any.
func fillFrom(ctx context.Context) string {
	s, _ := ctx.Value(fillFromKey{}).(string)
	return s
}

// CacheLookup resolves a function key against this server's caches on
// behalf of a peer: the exact key under the asking budget first, then
// the cross-budget reuse rules. Only finished, cacheable answers are
// returned — never in-flight, canceled, or partial-under-cancel states.
func (s *Server) CacheLookup(fnKey string, timeoutMS, maxConflicts int64) (*CacheEntry, bool) {
	if !validKey(fnKey) {
		return nil, false
	}
	mPeerLookups.Inc()
	p := &parsedRequest{ident: identOf(fnKey, Request{TimeoutMS: timeoutMS, MaxConflicts: maxConflicts})}
	out, _, e, ok := s.probe(p, nil)
	if !ok || out.Status != StatusDone || out.Result == nil {
		return nil, false
	}
	mPeerLookupHits.Inc()
	return &CacheEntry{
		FnKey: fnKey, Key: e.key,
		MaxConflictsNorm: e.mc, TimeoutNS: int64(e.timeout),
		MatchedLB: e.matchedLB,
		Status:    out.Status, Result: out.Result,
	}, true
}

// SetPeers replaces the peer-fill allowlist (normally Config.Peers at
// construction). URLs are matched exactly after trailing-slash
// normalization; an empty list disables peer fill.
func (s *Server) SetPeers(urls ...string) {
	peers := make(map[string]bool, len(urls))
	for _, u := range urls {
		if u = strings.TrimRight(u, "/"); u != "" {
			peers[u] = true
		}
	}
	s.peersMu.Lock()
	s.peers = peers
	s.peersMu.Unlock()
}

// allowedPeer reports whether a fill hint names a configured peer.
func (s *Server) allowedPeer(peerURL string) bool {
	s.peersMu.RLock()
	defer s.peersMu.RUnlock()
	return s.peers[strings.TrimRight(peerURL, "/")]
}

// peerFill asks the hinted peer's cache for a compatible answer and, on
// a hit, adopts it into the local tiers under the peer's exact key.
// Every failure mode degrades to "no fill" — the caller synthesizes.
func (s *Server) peerFill(ctx context.Context, peerURL string, p *parsedRequest) (*outcome, bool) {
	if !s.allowedPeer(peerURL) {
		// A hint outside the allowlist is either a misconfigured front or
		// an attack; either way it must not trigger an outbound request.
		mPeerFillRejected.Inc()
		s.log.Warn("peer fill hint rejected: not in -peers allowlist",
			"peer", peerURL)
		return nil, false
	}
	mPeerFillProbes.Inc()
	cctx, cancel := context.WithTimeout(ctx, peerFillTimeout)
	defer cancel()
	ent, err := NewClient(peerURL).CacheLookup(cctx, p.fnKey, p.timeoutMS, p.maxConflicts)
	if err != nil || ent == nil {
		return nil, false
	}
	// Trust nothing structural from the peer: the key names a cache file
	// on disk, so it must be a well-formed digest, and only a done
	// answer with a result is adoptable.
	if ent.Status != StatusDone || ent.Result == nil || !validKey(ent.Key) || ent.FnKey != p.fnKey {
		return nil, false
	}
	// Nor its lattice: a stale entry or a buggy peer must not poison both
	// tiers, so the answer must realize this request's function.
	out := &outcome{Status: StatusDone, Result: ent.Result}
	if !p.realizes(out) {
		mVerifyFailures.Inc()
		s.log.Warn("peer fill answer does not realize the requested function; refused",
			"peer", peerURL, "fn_key", p.fnKey)
		return nil, false
	}
	s.mem.put(ent.Key, out)
	s.disk.put(ent.Key, out)
	s.recordBudgetRaw(p.fnKey, ent.Key, ent.MaxConflictsNorm,
		time.Duration(ent.TimeoutNS), ent.MatchedLB)
	mPeerFillHits.Inc()
	return out, true
}

// validKey accepts exactly the canonical key shape: 64 lowercase hex
// characters (a sha256 digest). Anything else — path separators
// especially — is rejected before it can reach the disk tier.
func validKey(k string) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
