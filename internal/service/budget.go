package service

import "time"

// The result cache keys answers by (function, budget): a tighter budget
// may legitimately settle for a larger lattice, so answers under
// different budgets are different answers. But that exactness used to
// cut both ways — a request with a generous timeout could not reuse an
// answer the server had already proved optimal under a stingier one,
// and re-ran an hours-long synthesis to reproduce a result it already
// held. The budget index fixes that with two sound cross-budget reuse
// rules, checked only after the exact key misses (probe):
//
//  1. The stored answer matched the theoretical lower bound
//     (MatchedLB) and was computed under a budget no larger than the
//     request's. An LB-matching answer is globally optimal; more
//     budget cannot improve it. (Smaller stored budget is required
//     only to keep rule 2 from shadowing it — any MatchedLB answer is
//     actually reusable, and rule 2 covers the rest.)
//  2. The stored answer was computed under a budget at least as large
//     as the request's, componentwise. Whatever the bigger budget
//     produced, the smaller one could not have done better.
//
// Budgets are compared componentwise over (MaxConflicts, effective
// timeout); MaxConflicts = 0 means unlimited and dominates every
// finite bound (maxConflictsNorm), and the timeout is resolved against
// the server default/cap so "0" and "300000ms" under a 5m default
// compare equal.

// budgetEntry records one finished answer under fnKey: the exact cache
// key it was stored under and the budget it was computed with.
type budgetEntry struct {
	key       string
	mc        int64         // normalized MaxConflicts
	timeout   time.Duration // effective (default/cap-resolved) timeout
	matchedLB bool
}

// maxBudgetEntries caps the per-function list; distinct budgets for one
// function are rare, so eviction (oldest first) is almost theoretical.
const maxBudgetEntries = 16

// budgetOf resolves a parsed request onto the comparable budget scale.
func (s *Server) budgetOf(p *parsedRequest) (mc int64, timeout time.Duration) {
	return maxConflictsNorm(p.maxConflicts),
		p.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
}

// recordBudget indexes a finished done-outcome for cross-budget reuse.
func (s *Server) recordBudget(p *parsedRequest, matchedLB bool) {
	mc, timeout := s.budgetOf(p)
	s.recordBudgetRaw(p.fnKey, p.key, mc, timeout, matchedLB)
}

// recordBudgetRaw indexes an answer by its already-normalized budget —
// the peer-fill path uses this directly, because the budget a peer's
// answer was computed under is not this request's budget.
func (s *Server) recordBudgetRaw(fnKey, key string, mc int64, timeout time.Duration, matchedLB bool) {
	s.budMu.Lock()
	defer s.budMu.Unlock()
	list := s.budgets[fnKey]
	for i := range list {
		if list[i].key == key {
			list[i] = budgetEntry{key: key, mc: mc, timeout: timeout, matchedLB: matchedLB}
			return
		}
	}
	list = append(list, budgetEntry{key: key, mc: mc, timeout: timeout, matchedLB: matchedLB})
	if len(list) > maxBudgetEntries {
		list = list[len(list)-maxBudgetEntries:]
	}
	s.budgets[fnKey] = list
}

// probe resolves a request against the caches: the exact key first,
// then the budget index under the reuse rules. It returns the answer, the
// tier that held it, and the budget identity the answer was stored under
// (the request's own for an exact hit). check vets disk hits (see
// cached): the request path passes the request's own realizes; the peer
// cache-lookup endpoint, which knows only the function key, passes nil.
// Index entries whose answers have aged out of both cache tiers are
// pruned as they are discovered.
func (s *Server) probe(p *parsedRequest, check func(*outcome) bool) (*outcome, string, budgetEntry, bool) {
	reqMC, reqTO := s.budgetOf(p)
	if out, where, ok := s.cached(p.key, check); ok {
		matchedLB := out.Result != nil && out.Result.MatchedLB
		return out, where, budgetEntry{key: p.key, mc: reqMC, timeout: reqTO, matchedLB: matchedLB}, true
	}
	s.budMu.Lock()
	candidates := append([]budgetEntry(nil), s.budgets[p.fnKey]...)
	s.budMu.Unlock()
	for _, e := range candidates {
		if e.key == p.key {
			continue // the exact key already missed
		}
		optimal := e.matchedLB && e.mc <= reqMC && e.timeout <= reqTO
		dominates := e.mc >= reqMC && e.timeout >= reqTO
		if !optimal && !dominates {
			continue
		}
		if out, where, ok := s.cached(e.key, check); ok {
			mBudgetHits.Inc()
			return out, where, e, true
		}
		s.dropBudget(p.fnKey, e.key)
	}
	return nil, "", budgetEntry{}, false
}

// dropBudget removes a stale entry whose cached answer is gone.
func (s *Server) dropBudget(fnKey, key string) {
	s.budMu.Lock()
	defer s.budMu.Unlock()
	list := s.budgets[fnKey]
	for i := range list {
		if list[i].key == key {
			s.budgets[fnKey] = append(list[:i], list[i+1:]...)
			return
		}
	}
}
