package mem

// Snapshot/fork support: deep copies of the timing hierarchy and the
// rank-normalized state comparison fork-based fault replay uses to
// decide that a trial machine has reconverged with the golden run.

// CloneInto deep-copies the cache into dst (allocating when dst is nil),
// rewiring the copy's next level to next. dst's line slice is reused
// when its capacity allows, so per-fork steady state allocates nothing.
func (c *Cache) CloneInto(dst *Cache, next Level) *Cache {
	if dst == nil {
		dst = &Cache{}
	}
	lines := dst.lines
	snap := dst.frec.snap
	*dst = *c
	dst.lines = append(lines[:0], c.lines...)
	dst.frec.snap = append(snap[:0], c.frec.snap...)
	dst.next = next
	dst.log = nil
	return dst
}

// CloneInto deep-copies the TLB into dst (allocating when dst is nil).
func (t *TLB) CloneInto(dst *TLB) *TLB {
	if dst == nil {
		dst = &TLB{}
	}
	lines := dst.lines
	*dst = *t
	dst.lines = append(lines[:0], t.lines...)
	dst.log = nil
	return dst
}

// Clone returns a copy of the main-memory model.
func (m *MainMemory) Clone() *MainMemory {
	cp := *m
	return &cp
}

// CloneInto deep-copies the whole hierarchy into dst (allocating when
// dst is nil), preserving the internal wiring (L1I/L1D share the copied
// L2, which fronts the copied main memory).
func (h *Hierarchy) CloneInto(dst *Hierarchy) *Hierarchy {
	if dst == nil {
		dst = &Hierarchy{}
	}
	dst.Mem = h.Mem.Clone()
	dst.L2 = h.L2.CloneInto(dst.L2, dst.Mem)
	dst.L1I = h.L1I.CloneInto(dst.L1I, dst.L2)
	dst.L1D = h.L1D.CloneInto(dst.L1D, dst.L2)
	dst.ITLB = h.ITLB.CloneInto(dst.ITLB)
	dst.DTLB = h.DTLB.CloneInto(dst.DTLB)
	return dst
}

// linesEqualRanked compares two line arrays of the same geometry for
// future-equivalent state, set by set (setEqualRanked).
func linesEqualRanked(a, b []line, assoc uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for base := uint32(0); base < uint32(len(a)); base += assoc {
		if !setEqualRanked(a[base:base+assoc], b[base:base+assoc]) {
			return false
		}
	}
	return true
}

// setEqualRanked compares one set of two same-geometry caches: tags,
// valid and dirty bits must match way by way, while recency is compared
// by rank order within the set rather than raw lru clock values. Two
// machines whose accesses touched a set in the same relative order —
// but at different absolute clocks, e.g. because one replayed a few
// instructions after a fault recovery — hit, miss, and evict
// identically from here on, which is all forked-trial convergence
// needs.
func setEqualRanked(a, b []line) bool {
	for j := range a {
		if a[j].valid != b[j].valid {
			return false
		}
		if a[j].valid && (a[j].tag != b[j].tag || a[j].dirty != b[j].dirty) {
			return false
		}
	}
	for j := range a {
		if !a[j].valid {
			continue
		}
		var ra, rb int
		for k := range a {
			if a[k].valid && a[k].lru < a[j].lru {
				ra++
			}
			if b[k].valid && b[k].lru < b[j].lru {
				rb++
			}
		}
		if ra != rb {
			return false
		}
	}
	return true
}

// StateEqualRanked reports whether two same-configured caches behave
// identically from here on (statistics counters are deliberately not
// part of the comparison — they record the past, not the future).
func (c *Cache) StateEqualRanked(o *Cache) bool {
	if c.cfg != o.cfg {
		return false
	}
	if !faultRecEqual(c.frec, o.frec) {
		return false
	}
	return linesEqualRanked(c.lines, o.lines, c.cfg.Assoc)
}

// faultRecEqual compares injection residue exactly. A cache carrying an
// armed (or pending) record can still mutate the architectural plane at
// a future eviction, so without knowledge of the future it is never
// equivalent to a clean cache; futureEqual (future.go) is the
// golden-suffix refinement that admits residue whose settling is
// provably harmless.
func faultRecEqual(a, b faultRec) bool {
	if a.kind != b.kind || a.pending != b.pending {
		return false
	}
	if a.kind == frNone {
		return true
	}
	if a.idx != b.idx || a.set != b.set || a.origTag != b.origTag ||
		a.waddr != b.waddr || a.wmask != b.wmask || a.wflip != b.wflip ||
		len(a.snap) != len(b.snap) {
		return false
	}
	for i := range a.snap {
		if a.snap[i] != b.snap[i] {
			return false
		}
	}
	return true
}

// StateEqualRanked reports whether two same-configured TLBs behave
// identically from here on.
func (t *TLB) StateEqualRanked(o *TLB) bool {
	if t.cfg != o.cfg {
		return false
	}
	return linesEqualRanked(t.lines, o.lines, t.cfg.Assoc)
}

// StateEqualRanked compares every level of two hierarchies.
func (h *Hierarchy) StateEqualRanked(o *Hierarchy) bool {
	return h.L1I.StateEqualRanked(o.L1I) &&
		h.L1D.StateEqualRanked(o.L1D) &&
		h.L2.StateEqualRanked(o.L2) &&
		h.ITLB.StateEqualRanked(o.ITLB) &&
		h.DTLB.StateEqualRanked(o.DTLB)
}

// ExtrapolateStats advances the cache counters as if the machine
// repeated its last cycle n more times: prev is the counter snapshot
// one cycle ago. Used by the hang fast-forward.
func (c *Cache) ExtrapolateStats(prev CacheStats, n uint64) {
	c.stats.Accesses += (c.stats.Accesses - prev.Accesses) * n
	c.stats.Hits += (c.stats.Hits - prev.Hits) * n
	c.stats.Misses += (c.stats.Misses - prev.Misses) * n
	c.stats.Writebacks += (c.stats.Writebacks - prev.Writebacks) * n
}
