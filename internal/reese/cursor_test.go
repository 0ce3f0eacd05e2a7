package reese

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The cursor tests drive an R-stream Queue through random enqueues
// (with partial re-execution's skips), in-order dispatch, issue with
// random latencies, comparison (with injected mismatches), retirement,
// Flush and CloneInto, and check every cycle that the cursor- and
// watermark-driven selections (DispatchNext, Unissued, CompareDue)
// return exactly the entries, in the same order, that a scan of the
// whole queue returns.

// scanSeqs lists, in queue order, the entries of a full scan that keep.
func scanSeqs(q *Queue, keep func(*Entry) bool) []uint64 {
	var out []uint64
	q.Scan(func(e *Entry) bool {
		if keep(e) {
			out = append(out, e.QSeq)
		}
		return true
	})
	return out
}

func TestCursorsMatchFullScan(t *testing.T) {
	for _, size := range []int{32, 12, 40, 1} {
		for _, every := range []int{1, 2, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("rsq%d/every%d/seed%d", size, every, seed), func(t *testing.T) {
					checkCursors(t, size, every, rand.New(rand.NewSource(seed)))
				})
			}
		}
	}
}

func checkCursors(t *testing.T, size, every int, rng *rand.Rand) {
	q, err := New(size, 0, every)
	if err != nil {
		t.Fatal(err)
	}
	var spare *Queue
	now, seq := uint64(0), uint64(0)
	for cycle := 0; cycle < 4000; cycle++ {
		// Retire verified heads.
		for n := rng.Intn(4); n > 0; n-- {
			if h := q.Head(); h == nil || !h.Verified {
				break
			}
			q.RetireHead()
		}

		// Compare: the due copies in queue order, up to the first
		// corrupted one.
		var want []uint64
		var wantBad *Entry
		q.Scan(func(e *Entry) bool {
			if !e.Issued || e.Done || e.DoneAt > now {
				return true
			}
			if e.ResultP != e.Trace.Result {
				wantBad = e
				return false
			}
			want = append(want, e.QSeq)
			return true
		})
		var got []uint64
		bad := q.CompareDue(now, func(e *Entry) {
			if !e.Verified {
				t.Fatalf("cycle %d: qseq %d handed over unverified", cycle, e.QSeq)
			}
			got = append(got, e.QSeq)
		})
		if !slices.Equal(got, want) || bad != wantBad {
			t.Fatalf("cycle %d (now %d): CompareDue verified %v, bad %p; full scan %v, bad %p", cycle, now, got, bad, want, wantBad)
		}
		if bad != nil && rng.Intn(2) == 0 {
			// Recovery flushes the queue; otherwise the machine stops on
			// a permanent error and the queue keeps the mismatch.
			q.Flush()
		}

		// Issue: the dispatched, unissued copies; a random subset issues.
		from, to := q.Unissued()
		got = got[:0]
		for s := from; s < to; s++ {
			if !q.Get(s).Issued {
				got = append(got, s)
			}
		}
		want = scanSeqs(q, func(e *Entry) bool { return e.Dispatched && !e.Issued })
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Unissued window holds %v, full scan %v", cycle, got, want)
		}
		for _, s := range got {
			if rng.Intn(3) == 0 {
				q.MarkIssued(q.Get(s), now, now+uint64(rng.Intn(24)))
			}
		}

		// Dispatch in FIFO order.
		for n := rng.Intn(4); n > 0; n-- {
			want = scanSeqs(q, func(e *Entry) bool { return !e.Dispatched })
			if q.DispatchPending() != (len(want) > 0) {
				t.Fatalf("cycle %d: DispatchPending = %v, undispatched %v", cycle, q.DispatchPending(), want)
			}
			e := q.DispatchNext()
			if len(want) == 0 {
				if e != nil {
					t.Fatalf("cycle %d: dispatched qseq %d, nothing waits", cycle, e.QSeq)
				}
				break
			}
			if e == nil || e.QSeq != want[0] {
				t.Fatalf("cycle %d: DispatchNext = %+v, oldest undispatched %d", cycle, e, want[0])
			}
		}

		// Enqueue, a few entries corrupted so the comparator fires.
		for n := rng.Intn(4); n > 0 && !q.Full(); n-- {
			ent := aluEntry(seq, 1, 2, 3)
			if rng.Intn(50) == 0 {
				ent.ResultP ^= 1
			}
			enqueue(q, ent, now)
			seq++
		}

		switch rng.Intn(40) {
		case 0:
			q.Flush()
		case 1, 2:
			spare = q.CloneInto(spare)
			q, spare = spare, q
		case 3:
			now += uint64(rng.Intn(100))
		}
		now++
	}
}

func TestRingRoundsOddSizesUp(t *testing.T) {
	for _, tc := range []struct{ size, slots int }{{1, 1}, {12, 16}, {32, 32}, {40, 64}} {
		q, err := New(tc.size, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.slots) != tc.slots || q.Cap() != tc.size {
			t.Errorf("size %d: %d slots, Cap %d; want %d slots", tc.size, len(q.slots), q.Cap(), tc.slots)
		}
		for i := 0; i < tc.size; i++ {
			enqueue(q, aluEntry(uint64(i), 1, 2, 3), 0)
		}
		if !q.Full() || q.Len() != tc.size {
			t.Errorf("size %d: Full %v at %d entries", tc.size, q.Full(), q.Len())
		}
	}
}
