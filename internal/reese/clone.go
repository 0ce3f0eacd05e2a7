package reese

// CloneInto deep-copies the R-stream Queue into dst (allocating when dst
// is nil), reusing dst's slot slice when its capacity allows. Entries
// are value types, so the slice copy captures everything; the struct
// copy carries the cursors and the DoneAt watermark along.
func (q *Queue) CloneInto(dst *Queue) *Queue {
	if dst == nil {
		dst = &Queue{}
	}
	slots := dst.slots
	*dst = *q
	dst.slots = append(slots[:0], q.slots...)
	return dst
}
