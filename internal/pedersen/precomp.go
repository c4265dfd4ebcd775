package pedersen

import (
	"sync"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/group"
)

// Fixed-base acceleration: commitments always exponentiate the two public
// generators, so per-group precomputed tables turn Com(x, r) from two full
// exponentiations into ~64 group operations (see group.Precomp). Tables are
// built lazily on first use and shared across all Params instances over the
// same group — generators are deterministic per group, so the cache key is
// the group itself.
//
// Concurrency: the tables are immutable after construction, and a session's
// worker pool (internal/vdp) hammers ExpH and CommitWith from every worker, so
// the lookup must not serialize goroutines. Each Params caches the resolved
// table pointer in an atomic (one load on the hot path, no lock); the global
// per-group cache behind it is guarded by an RWMutex and only consulted on
// each Params' first use.

type generatorTables struct {
	g *group.Precomp
	h *group.Precomp
}

var (
	precompMu    sync.RWMutex
	precompCache = map[group.Group]*generatorTables{}
)

// tables returns (building if needed) the fixed-base tables for p's group.
func (p *Params) tables() *generatorTables {
	if t := p.tbl.Load(); t != nil {
		return t
	}
	t := sharedTables(p.grp)
	p.tbl.Store(t)
	return t
}

// sharedTables resolves the per-group table set, building it under the write
// lock on first use. Two goroutines racing on a cold cache both reach the
// write lock; the second finds the entry and discards nothing.
func sharedTables(grp group.Group) *generatorTables {
	precompMu.RLock()
	t, ok := precompCache[grp]
	precompMu.RUnlock()
	if ok {
		return t
	}
	precompMu.Lock()
	defer precompMu.Unlock()
	if t, ok := precompCache[grp]; ok {
		return t
	}
	t = &generatorTables{
		g: group.NewPrecomp(grp, grp.Generator()),
		h: group.NewPrecomp(grp, grp.AltGenerator()),
	}
	precompCache[grp] = t
	return t
}

// commitElement evaluates Com(x, rx) = g^x·h^rx. Groups with a native
// fixed-base backend (group.FixedBasePowers — the fast P-256 group) get a
// fused two-table evaluation with no intermediate element; everything
// else goes through the generic per-group Precomp tables. The tests
// cross-check both against CommitWithSlow, the plain double
// exponentiation.
func (p *Params) commitElement(x, rx *field.Element) group.Element {
	if fb, ok := p.grp.(group.FixedBasePowers); ok {
		return fb.CommitGenerators(x, rx)
	}
	t := p.tables()
	return group.Exp2Precomp(t.g, x, t.h, rx)
}

// ExpH returns h^k — the hottest operation in Σ-OR proving and
// verification, where every equation is a power of h.
func (p *Params) ExpH(k *field.Element) group.Element {
	if fb, ok := p.grp.(group.FixedBasePowers); ok {
		return fb.ExpAltGenerator(k)
	}
	return p.tables().h.Exp(k)
}

// tblCache is the atomic per-Params table pointer embedded in Params.
type tblCache = atomic.Pointer[generatorTables]
