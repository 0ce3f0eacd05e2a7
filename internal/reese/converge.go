package reese

// SeqNorm maps an external (LSQ) sequence reference to a normalized
// comparable value; pipeline convergence passes each machine's own
// LSQ.NormSeq.
type SeqNorm func(uint64) uint64

func relTime(v, now uint64) uint64 {
	if v <= now {
		return 0
	}
	return v - now
}

// StateConverged reports whether two R-stream Queues behave identically
// from here on, under the same normalization rules as ruu.Converged:
// queue order is compared relative to each queue's head, completion
// times relative to each machine's current cycle, and statistics are
// excluded. Resident entries' program sequence numbers are excluded too
// — a resident entry's Seq has no further behavioral use (its skip
// decision was taken at enqueue); callers guard the partial-re-execution
// case where future enqueues make absolute sequence numbers matter. The
// cursors and the DoneAt watermark are excluded as well: they are
// conservative bounds that only let a stage skip entries a full scan
// would skip.
func (q *Queue) StateConverged(o *Queue, nowQ, nowO uint64, lsqQ, lsqO SeqNorm) bool {
	if q.size != o.size || q.highWater != o.highWater || q.every != o.every || q.reso != o.reso {
		return false
	}
	if q.Len() != o.Len() {
		return false
	}
	for i := uint64(0); i < uint64(q.Len()); i++ {
		ea := &q.slots[(q.headSeq+i)&q.mask]
		eb := &o.slots[(o.headSeq+i)&o.mask]
		if ea.Trace != eb.Trace {
			return false
		}
		if ea.ResultP != eb.ResultP || ea.NextPCP != eb.NextPCP ||
			ea.AddrP != eb.AddrP || ea.StoreValueP != eb.StoreValueP {
			return false
		}
		if ea.FaultBit != eb.FaultBit {
			return false
		}
		if lsqQ(ea.LSQSeq) != lsqO(eb.LSQSeq) {
			return false
		}
		if ea.Dispatched != eb.Dispatched || ea.Issued != eb.Issued || ea.Done != eb.Done ||
			ea.Verified != eb.Verified || ea.Mismatch != eb.Mismatch || ea.Skipped != eb.Skipped {
			return false
		}
		if relTime(ea.DoneAt, nowQ) != relTime(eb.DoneAt, nowO) {
			return false
		}
		if ea.RFaultMask != eb.RFaultMask || ea.OperandAMask != eb.OperandAMask ||
			ea.OperandBMask != eb.OperandBMask || ea.CompIgnore != eb.CompIgnore {
			return false
		}
	}
	return true
}

// Every returns the partial-re-execution stride (1 = every instruction
// is re-executed).
func (q *Queue) Every() int { return q.every }

// ExtrapolateStats advances the per-cycle counters as if the machine
// repeated its last cycle n more times: prev is the counter snapshot
// one cycle ago, and each counter grows by n times its last-cycle
// delta. Used by the hang fast-forward, where the repeated cycle's
// deltas are provably constant.
func (q *Queue) ExtrapolateStats(prev Stats, n uint64) {
	q.stats.Enqueued += (q.stats.Enqueued - prev.Enqueued) * n
	q.stats.Reexecuted += (q.stats.Reexecuted - prev.Reexecuted) * n
	q.stats.Verified += (q.stats.Verified - prev.Verified) * n
	q.stats.Mismatches += (q.stats.Mismatches - prev.Mismatches) * n
	q.stats.Skipped += (q.stats.Skipped - prev.Skipped) * n
	q.stats.FullStalls += (q.stats.FullStalls - prev.FullStalls) * n
	q.stats.PriorityCycles += (q.stats.PriorityCycles - prev.PriorityCycles) * n
	q.stats.OccupancySum += (q.stats.OccupancySum - prev.OccupancySum) * n
}
