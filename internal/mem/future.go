package mem

import "sort"

// Golden-suffix comparison of caches and TLBs for checkpoint/fork fault
// replay.
//
// A forked trial may splice (end early, inheriting the golden run's
// result) only once it provably behaves like the golden machine from
// the boundary on. Exact state equality is too strict for the memory
// hierarchy: a flipped TLB or I-cache tag that is never hit again, a
// dirty bit that differs on a line that is never evicted, or a way
// permutation left by a recovery all block it forever although the
// rest of the run cannot tell. The golden run knows its own future, so
// it logs every access it makes to each cache and TLB, and a trial set
// that differs from the golden set is compared by replaying the golden
// suffix's accesses to that set against both copies.
//
// A cache or TLB is observable to the rest of the machine only through
// what each access returns and does: hit or miss (the latency), whether
// the victim is written back and to which address (the next level's
// access stream), and — for a cache carrying fault residue — the
// architectural-memory write its settling may perform when the residue
// line is evicted. Soundness, by induction over the golden suffix's
// accesses in order (as in bpred/readset.go): suppose every earlier
// access behaved identically in the trial and the golden machine, so
// the rest of the machine is in lockstep and the trial now makes the
// same access. Sets are independent — an access reads and writes only
// its own set, and recency is compared only within a set — so the
// access behaves as in the replay of its set, where it was checked to
// hit or miss alike, write back alike, and settle residue without
// touching memory. Hence it behaves identically too. An L1 whose sets
// all pass sends the next level exactly the golden stream of fills and
// write-backs, which is what the L2's log holds. Statistics counters
// record the past and never feed behavior.
//
// Replay stops early once the two copies of a set are ranked-equal and
// the trial's residue is no longer in it: from there on they evolve
// identically.

// accessLog is one structure's raw access record: set<<32 | tag<<1 |
// write, in access order. wide is set once a tag needs more than 31
// bits (a degenerate geometry: tiny blocks or pages and few sets).
type accessLog struct {
	rec  []uint64
	wide bool
}

func (l *accessLog) add(set, tag uint32, write bool) {
	e := uint64(set)<<32 | uint64(tag<<1)
	if write {
		e |= 1
	}
	l.wide = l.wide || tag>>31 != 0
	l.rec = append(l.rec, e)
}

// setLog is one structure's golden access log indexed per set: the
// accesses to set s are entries off[s] to off[s+1], in order; pos is
// each access's index in the structure's whole access stream and ent
// its tag<<1|write.
type setLog struct {
	off []uint32
	pos []uint32
	ent []uint32
	// ok is false when the structure's tags do not fit ent's 31 bits;
	// such a structure is compared exactly.
	ok bool
}

// indexLog builds the per-set index in two passes: count, then fill.
func indexLog(l *accessLog, sets uint32) setLog {
	if l == nil {
		return setLog{}
	}
	sl := setLog{
		off: make([]uint32, sets+1),
		pos: make([]uint32, len(l.rec)),
		ent: make([]uint32, len(l.rec)),
		ok:  !l.wide,
	}
	for _, e := range l.rec {
		sl.off[e>>32+1]++
	}
	for s := uint32(1); s <= sets; s++ {
		sl.off[s] += sl.off[s-1]
	}
	next := append([]uint32(nil), sl.off[:sets]...)
	for i, e := range l.rec {
		s := e >> 32
		k := next[s]
		next[s]++
		sl.pos[k] = uint32(i)
		sl.ent[k] = uint32(e)
	}
	return sl
}

// suffix returns the entries of set s at stream position at or later.
func (sl *setLog) suffix(s, at uint32) []uint32 {
	lo, hi := sl.off[s], sl.off[s+1]
	pos := sl.pos[lo:hi]
	return sl.ent[lo+uint32(sort.Search(len(pos), func(i int) bool { return pos[i] >= at })) : hi]
}

// Structures of a hierarchy, in HierLog and AccessPos order.
const (
	lvL1I = iota
	lvL1D
	lvL2
	lvITLB
	lvDTLB
	numLevels
)

// AccessPos is a point in a logging hierarchy's access streams: per
// structure (L1I, L1D, L2, ITLB, DTLB), the number of accesses made so
// far.
type AccessPos [numLevels]uint32

// HierLog is a golden run's whole-hierarchy access record, indexed per
// set. It is immutable once built and shared by every checkpoint.
type HierLog struct {
	lv [numLevels]setLog
}

// StartAccessLog makes every cache and TLB of the hierarchy log its
// accesses until FinishAccessLog.
func (h *Hierarchy) StartAccessLog() {
	h.L1I.log, h.L1D.log, h.L2.log = &accessLog{}, &accessLog{}, &accessLog{}
	h.ITLB.log, h.DTLB.log = &accessLog{}, &accessLog{}
}

// AccessPos returns the current position in each structure's access
// log (zeros when not logging).
func (h *Hierarchy) AccessPos() AccessPos {
	var p AccessPos
	for i, l := range h.logs() {
		if l != nil {
			p[i] = uint32(len(l.rec))
		}
	}
	return p
}

func (h *Hierarchy) logs() [numLevels]*accessLog {
	return [numLevels]*accessLog{h.L1I.log, h.L1D.log, h.L2.log, h.ITLB.log, h.DTLB.log}
}

// FinishAccessLog stops logging and returns the per-set index of
// everything logged since StartAccessLog.
func (h *Hierarchy) FinishAccessLog() *HierLog {
	logs := h.logs()
	sets := [numLevels]uint32{h.L1I.sets, h.L1D.sets, h.L2.sets, h.ITLB.sets, h.DTLB.sets}
	out := &HierLog{}
	for i, l := range logs {
		out.lv[i] = indexLog(l, sets[i])
	}
	h.L1I.log, h.L1D.log, h.L2.log, h.ITLB.log, h.DTLB.log = nil, nil, nil, nil, nil
	return out
}

// FutureEqual reports whether h (a trial's hierarchy) behaves like g
// (the golden hierarchy at the same boundary) for every access the
// golden run makes after position at of log. Sets that are ranked-equal
// and carry no trial residue are equal outright; every other set must
// pass replay of the golden suffix's accesses to it (see the file
// comment for the soundness argument).
func (h *Hierarchy) FutureEqual(g *Hierarchy, log *HierLog, at AccessPos) bool {
	return h.L1I.futureEqual(g.L1I, &log.lv[lvL1I], at[lvL1I]) &&
		h.L1D.futureEqual(g.L1D, &log.lv[lvL1D], at[lvL1D]) &&
		h.L2.futureEqual(g.L2, &log.lv[lvL2], at[lvL2]) &&
		h.ITLB.futureEqual(g.ITLB, &log.lv[lvITLB], at[lvITLB]) &&
		h.DTLB.futureEqual(g.DTLB, &log.lv[lvDTLB], at[lvDTLB])
}

// futureEqual is FutureEqual for one cache. The golden side must carry
// no residue; a trial residue record is tolerated only if replay shows
// its line is either never evicted in the suffix or evicted in the
// state where settling leaves memory alone. A lost write-back that has
// not fired yet may still clear a dirty bit, so it never passes.
func (c *Cache) futureEqual(g *Cache, sl *setLog, at uint32) bool {
	if !sl.ok || g.frec.kind != frNone {
		return c.StateEqualRanked(g)
	}
	if c.cfg != g.cfg || c.frec.kind == frLostWB && c.frec.pending {
		return false
	}
	return linesFutureEqual(c.lines, g.lines, c.cfg.Assoc, sl, at, c.frec)
}

// futureEqual is FutureEqual for one TLB (no residue, no write-backs).
func (t *TLB) futureEqual(g *TLB, sl *setLog, at uint32) bool {
	if !sl.ok {
		return t.StateEqualRanked(g)
	}
	if t.cfg != g.cfg {
		return false
	}
	return linesFutureEqual(t.lines, g.lines, t.cfg.Assoc, sl, at, faultRec{})
}

// linesFutureEqual compares trial lines a with golden lines b set by
// set: ranked-equal sets without the residue rec are equal, every other
// set must pass replaySet.
func linesFutureEqual(a, b []line, assoc uint32, sl *setLog, at uint32, rec faultRec) bool {
	resSet := ^uint32(0)
	if rec.kind != frNone {
		resSet = rec.set
	}
	for base := uint32(0); base < uint32(len(a)); base += assoc {
		s := base / assoc
		x, y := a[base:base+assoc], b[base:base+assoc]
		resWay := -1
		if s == resSet {
			resWay = int(rec.idx - base)
		} else if setEqualRanked(x, y) {
			continue
		}
		if !replaySet(x, y, resWay, rec.kind, sl.suffix(s, at)) {
			return false
		}
	}
	return true
}

// settleIsNoOp reports whether settling a residue record of kind on an
// eviction with the given dirty bit leaves architectural memory alone
// (inject.go, settleFault): a flipped tag evicted clean was timing-only,
// a flipped data word or a lost write-back evicted dirty is carried by
// the write-back.
func settleIsNoOp(kind uint8, dirty bool) bool {
	if kind == frTag {
		return !dirty
	}
	return dirty
}

// replaySet replays the golden accesses ents against private copies of
// a trial set a and the golden set b, mirroring Cache.Access, and
// reports whether every access hits or misses alike and writes back
// alike (presence and address). resWay is the way holding the trial's
// residue line (-1 for none); its eviction must be a memory no-op.
func replaySet(a, b []line, resWay int, kind uint8, ents []uint32) bool {
	var bufA, bufB [8]line
	x := append(bufA[:0], a...)
	y := append(bufB[:0], b...)
	var cx, cy uint64
	for i := range x {
		cx, cy = max(cx, x[i].lru), max(cy, y[i].lru)
	}
	for _, e := range ents {
		tag, write := e>>1, e&1 != 0
		cx++
		cy++
		wx, wy := hitWay(x, tag), hitWay(y, tag)
		if (wx < 0) != (wy < 0) {
			return false
		}
		if wx >= 0 {
			x[wx].lru, y[wy].lru = cx, cy
			if write {
				x[wx].dirty, y[wy].dirty = true, true
			}
		} else {
			vx, vy := victimWay(x), victimWay(y)
			wbx := x[vx].valid && x[vx].dirty
			if wbx != (y[vy].valid && y[vy].dirty) || wbx && x[vx].tag != y[vy].tag {
				return false
			}
			if vx == resWay && x[vx].valid {
				if !settleIsNoOp(kind, x[vx].dirty) {
					return false
				}
				resWay = -1
			}
			x[vx] = line{tag: tag, valid: true, dirty: write, lru: cx}
			y[vy] = line{tag: tag, valid: true, dirty: write, lru: cy}
		}
		if resWay < 0 && setEqualRanked(x, y) {
			return true
		}
	}
	return true
}
