package ruu

// Snapshot/fork support: deep copies of the in-flight queues. Resident
// entries are value types (emu.Trace and scalars), so copying the slot
// slices captures everything; the circular addressing by sequence number,
// the cursors and the DoneAt watermark are position-independent state
// that the struct copy carries along.

// CloneInto deep-copies the RUU into dst (allocating when dst is nil),
// reusing dst's slot slice when its capacity allows.
func (r *RUU) CloneInto(dst *RUU) *RUU {
	if dst == nil {
		dst = &RUU{}
	}
	slots := dst.slots
	*dst = *r
	dst.slots = append(slots[:0], r.slots...)
	return dst
}

// CloneInto deep-copies the LSQ into dst (allocating when dst is nil).
func (q *LSQ) CloneInto(dst *LSQ) *LSQ {
	if dst == nil {
		dst = &LSQ{}
	}
	slots := dst.slots
	*dst = *q
	dst.slots = append(slots[:0], q.slots...)
	return dst
}
