package ruu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"reese/internal/isa"
)

// The cursor tests drive an RUU through random dispatch, issue with
// random latencies, completion (with mid-completion squashes),
// retirement, TruncateAfter, Flush and CloneInto, and check every cycle
// that the cursor- and watermark-driven selections (Unissued,
// CompleteDue) return exactly the entries, in the same order, that a
// scan of the whole window returns.

// unissuedByScan lists the resident unissued entries of a full scan.
func unissuedByScan(r *RUU) []uint64 {
	var out []uint64
	r.Scan(func(e *Entry) bool {
		if !e.Issued {
			out = append(out, e.Seq)
		}
		return true
	})
	return out
}

// unissuedByCursor lists the unissued entries inside Unissued's window.
func unissuedByCursor(r *RUU) []uint64 {
	var out []uint64
	from, to := r.Unissued()
	for s := from; s < to; s++ {
		if e := r.Get(s); !e.Issued {
			out = append(out, s)
		}
	}
	return out
}

// dueByScan lists the entries a full scan would complete at now.
func dueByScan(r *RUU, now uint64) []uint64 {
	var out []uint64
	r.Scan(func(e *Entry) bool {
		if e.Issued && !e.Completed && e.DoneAt <= now {
			out = append(out, e.Seq)
		}
		return true
	})
	return out
}

func TestCursorsMatchFullScan(t *testing.T) {
	for _, size := range []int{16, 24, 2, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("ruu%d/seed%d", size, seed), func(t *testing.T) {
				checkCursors(t, size, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func checkCursors(t *testing.T, size int, rng *rand.Rand) {
	r, err := New(size)
	if err != nil {
		t.Fatal(err)
	}
	var spare *RUU
	now := uint64(0)
	for cycle := 0; cycle < 4000; cycle++ {
		// Retire completed heads (in order, like commit).
		for n := rng.Intn(4); n > 0; n-- {
			h := r.Head()
			if h == nil || !h.Completed || h.DoneAt > now {
				break
			}
			r.RemoveHead()
		}

		// Writeback, sometimes squashing the tail behind a completing
		// entry the way a resolved mispredicted branch does.
		want := dueByScan(r, now)
		squashAt := NoProducer
		if len(want) > 0 && rng.Intn(8) == 0 {
			i := rng.Intn(len(want))
			squashAt, want = want[i], want[:i+1]
		}
		var got []uint64
		r.CompleteDue(now, func(e *Entry) {
			if !e.Completed {
				t.Fatalf("cycle %d: seq %d handed over uncompleted", cycle, e.Seq)
			}
			got = append(got, e.Seq)
			if e.Seq == squashAt {
				r.TruncateAfter(e.Seq)
			}
		})
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d (now %d): CompleteDue = %v, full scan = %v", cycle, now, got, want)
		}

		// Issue: a random subset of the unissued entries, random latency.
		got, want = unissuedByCursor(r), unissuedByScan(r)
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Unissued window holds %v, full scan %v", cycle, got, want)
		}
		for _, s := range got {
			if rng.Intn(3) == 0 {
				r.MarkIssued(r.Get(s), now, now+uint64(rng.Intn(24)))
			}
		}

		// Dispatch.
		for n := rng.Intn(5); n > 0 && !r.Full(); n-- {
			r.Dispatch(trace(isa.OpAdd, isa.Reg(1+rng.Intn(8)), isa.Reg(rng.Intn(8)), isa.Reg(rng.Intn(8))), NoProducer)
		}

		// Rarer disturbances: a wrong-path squash at a random point, a
		// recovery flush, a fork, a jump of the clock (the hang
		// fast-forward).
		switch rng.Intn(40) {
		case 0:
			if !r.Empty() {
				r.TruncateAfter(r.HeadSeq() + uint64(rng.Intn(r.Len())))
			}
		case 1:
			r.Flush()
		case 2, 3:
			spare = r.CloneInto(spare)
			r, spare = spare, r
		case 4:
			now += uint64(rng.Intn(100))
		}
		now++
	}
}

func TestRingRoundsOddSizesUp(t *testing.T) {
	for _, tc := range []struct{ size, slots int }{{2, 2}, {5, 8}, {16, 16}, {24, 32}} {
		r, _ := New(tc.size)
		q, _ := NewLSQ(tc.size)
		if len(r.slots) != tc.slots || len(q.slots) != tc.slots {
			t.Errorf("size %d: %d RUU and %d LSQ slots, want %d", tc.size, len(r.slots), len(q.slots), tc.slots)
		}
		if r.Cap() != tc.size || q.Cap() != tc.size {
			t.Errorf("size %d: Cap %d/%d", tc.size, r.Cap(), q.Cap())
		}
	}
}

// TestLSQMatchesModel checks the masked LSQ ring against a plain slice
// model under random dispatch, issue, removal, truncation, flush and
// clone, at power-of-two and odd capacities: residency, lookup and the
// load disposition must agree.
func TestLSQMatchesModel(t *testing.T) {
	for _, size := range []int{8, 12, 1, 3} {
		t.Run(fmt.Sprint("lsq", size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(size)))
			q, _ := NewLSQ(size)
			var spare *LSQ
			var model []LSQEntry // resident entries, oldest first
			for step := 0; step < 5000; step++ {
				switch op := rng.Intn(10); {
				case op < 4:
					if q.Full() != (len(model) == size) {
						t.Fatalf("step %d: Full = %v with %d of %d", step, q.Full(), len(model), size)
					}
					w := uint32(1) << rng.Intn(3)
					tr := memTrace(isa.OpLw, uint32(rng.Intn(8))*4, w)
					if rng.Intn(2) == 0 {
						tr.Inst.Op = isa.OpSw
					}
					if e := q.Dispatch(tr, uint64(step)); e != nil {
						model = append(model, *e)
					}
				case op < 6:
					if len(model) > 0 {
						i := rng.Intn(len(model))
						model[i].Issued = true
						q.Get(model[i].MemSeq).Issued = true
					}
				case op < 8:
					if len(model) > 0 {
						q.RemoveHead()
						model = model[1:]
					}
				case op == 8:
					if len(model) > 0 {
						i := rng.Intn(len(model))
						q.TruncateTo(model[i].MemSeq)
						model = model[:i]
					}
				default:
					if rng.Intn(4) == 0 {
						q.Flush()
						model = model[:0]
					} else {
						spare = q.CloneInto(spare)
						q, spare = spare, q
					}
				}
				if q.Len() != len(model) {
					t.Fatalf("step %d: Len %d, model %d", step, q.Len(), len(model))
				}
				for i := range model {
					if got := *q.Get(model[i].MemSeq); got != model[i] {
						t.Fatalf("step %d: Get(%d) = %+v, model %+v", step, model[i].MemSeq, got, model[i])
					}
					if model[i].IsStore {
						continue
					}
					want := LoadFromCache
				scan:
					for _, s := range model[:i] {
						switch {
						case !s.IsStore:
						case !s.Issued:
							want = LoadBlocked
							break scan
						case overlap(s.Addr, s.Width, model[i].Addr, model[i].Width):
							want = LoadForward
						}
					}
					if got := q.CheckLoad(model[i].MemSeq); got != want {
						t.Fatalf("step %d: CheckLoad(%d) = %v, model %v", step, model[i].MemSeq, got, want)
					}
				}
			}
		})
	}
}
