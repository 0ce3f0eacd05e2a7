package ruu

// Convergence comparison for checkpoint/fork fault replay: two machines
// whose windows match under this comparison schedule, issue, and retire
// identically from here on, even when their absolute sequence numbers
// and cycle counts differ (a recovered trial replays instructions, so
// its counters run ahead of the golden run's).
//
// The normalization rules:
//   - sequence references compare relative to each queue's own head; a
//     reference outside the resident window is behaviorally equivalent
//     to "no producer" (depReady treats both as available) and maps to
//     one sentinel;
//   - absolute times compare relative to each machine's own current
//     cycle, with anything at or before "now" collapsing to zero (a
//     deadline in the past is simply "ready");
//   - pure statistics (how a value came to be, not what it will do) are
//     excluded, and so are the derived cursors and DoneAt watermark:
//     they only decide which entries a stage may skip, and they skip
//     only entries a full scan would skip too, so two machines whose
//     entries match behave alike whatever their cursors hold.

// SeqNone is the normalized sentinel for a sequence reference with no
// behavioral meaning (absent, or no longer resident).
const SeqNone = ^uint64(0)

// NormSeq normalizes an RUU sequence reference for convergence
// comparison.
func (r *RUU) NormSeq(s uint64) uint64 {
	if s == NoProducer || !r.Resident(s) {
		return SeqNone
	}
	return s - r.headSeq
}

// NormSeq normalizes an LSQ memory-order sequence reference for
// convergence comparison.
func (q *LSQ) NormSeq(s uint64) uint64 {
	if s == NoProducer || !q.Resident(s) {
		return SeqNone
	}
	return s - q.headSeq
}

func relTime(v, now uint64) uint64 {
	if v <= now {
		return 0
	}
	return v - now
}

// Converged reports whether the (RUU, LSQ) pair of machine A matches
// machine B's under sequence and time normalization. nowA/nowB are the
// machines' current cycles. FUKind/FUUnit are excluded — which unit ran
// a completed instruction has no future effect unless a stuck-unit
// fault is installed, which callers must rule out separately.
func Converged(a, b *RUU, la, lb *LSQ, nowA, nowB uint64) bool {
	if a.size != b.size || la.size != lb.size {
		return false
	}
	if a.Len() != b.Len() || la.Len() != lb.Len() {
		return false
	}
	for i := uint64(0); i < uint64(a.Len()); i++ {
		ea := &a.slots[(a.headSeq+i)&a.mask]
		eb := &b.slots[(b.headSeq+i)&b.mask]
		if ea.Trace != eb.Trace {
			return false
		}
		if a.NormSeq(ea.Dep1) != b.NormSeq(eb.Dep1) || a.NormSeq(ea.Dep2) != b.NormSeq(eb.Dep2) {
			return false
		}
		if ea.Issued != eb.Issued || ea.Completed != eb.Completed {
			return false
		}
		if relTime(ea.DoneAt, nowA) != relTime(eb.DoneAt, nowB) {
			return false
		}
		if ea.Mispredicted != eb.Mispredicted || ea.BpHistory != eb.BpHistory {
			return false
		}
		if la.NormSeq(ea.LSQSeq) != lb.NormSeq(eb.LSQSeq) {
			return false
		}
		if ea.Dup != eb.Dup || ea.Bogus != eb.Bogus {
			return false
		}
		if ea.Dup && a.NormSeq(ea.PairSeq) != b.NormSeq(eb.PairSeq) {
			return false
		}
		if ea.destIdx != eb.destIdx || a.NormSeq(ea.prevProducer) != b.NormSeq(eb.prevProducer) {
			return false
		}
		if ea.ResultP != eb.ResultP || ea.NextPCP != eb.NextPCP ||
			ea.AddrP != eb.AddrP || ea.StoreValueP != eb.StoreValueP {
			return false
		}
		// An in-flight latched fault must match (a golden snapshot never
		// carries one, so a still-corrupted trial can never splice).
		if ea.FaultBit != eb.FaultBit {
			return false
		}
	}
	for i := range a.producer {
		if a.NormSeq(a.producer[i]) != b.NormSeq(b.producer[i]) {
			return false
		}
	}
	for i := uint64(0); i < uint64(la.Len()); i++ {
		ea := &la.slots[(la.headSeq+i)&la.mask]
		eb := &lb.slots[(lb.headSeq+i)&lb.mask]
		if ea.IsStore != eb.IsStore || ea.Addr != eb.Addr || ea.Width != eb.Width ||
			ea.Issued != eb.Issued || ea.Forwarded != eb.Forwarded {
			return false
		}
		if a.NormSeq(ea.Seq) != b.NormSeq(eb.Seq) {
			return false
		}
	}
	return true
}
