package mem

import (
	"math/rand"
	"testing"
)

// recLevel is a next level that records the address stream it is sent.
type recLevel struct{ seen []uint64 }

func (r *recLevel) Access(addr uint32, isWrite bool) int {
	e := uint64(addr) << 1
	if isWrite {
		e |= 1
	}
	r.seen = append(r.seen, e)
	return 10
}
func (r *recLevel) Name() string { return "rec" }

type acc struct {
	addr  uint32
	write bool
}

// futurePair is a golden cache and a trial cache of the 4-set, 2-way,
// 32-byte-block injection geometry, each with its own plane and
// recording next level, after the same prefix of accesses.
type futurePair struct {
	g, c   *Cache
	gp, cp *testPlane
	gn, cn *recLevel
}

func newFuturePair(t *testing.T, prefix []acc) *futurePair {
	t.Helper()
	f := &futurePair{gn: &recLevel{}, cn: &recLevel{}}
	mk := func(next Level) (*Cache, *testPlane) {
		c, err := NewCache(CacheConfig{Name: "l1", SizeBytes: 256, BlockBytes: 32, Assoc: 2, HitLatency: 2}, next)
		if err != nil {
			t.Fatal(err)
		}
		p := newTestPlane(1024)
		c.SetWordPlane(p)
		return c, p
	}
	f.g, f.gp = mk(f.gn)
	f.c, f.cp = mk(f.cn)
	for _, a := range prefix {
		f.g.Access(a.addr, a.write)
		f.c.Access(a.addr, a.write)
	}
	return f
}

// verdict logs the golden cache's suffix accesses, asks whether the
// trial cache is future-equal to the golden boundary state, and — when
// it says yes — runs the suffix on the trial too and checks that every
// access returned the same latency, sent the next level the same
// stream, and left the trial's memory plane alone.
func (f *futurePair) verdict(t *testing.T, suffix []acc) bool {
	t.Helper()
	boundary := f.g.CloneInto(nil, f.gn)
	f.g.log = &accessLog{}
	f.gn.seen = nil
	var glat []int
	for _, a := range suffix {
		glat = append(glat, f.g.Access(a.addr, a.write))
	}
	sl := indexLog(f.g.log, f.g.sets)
	f.g.log = nil
	eq := f.c.futureEqual(boundary, &sl, 0)
	if !eq {
		return false
	}
	plane := append([]uint32(nil), f.cp.words...)
	f.cn.seen = nil
	for i, a := range suffix {
		if lat := f.c.Access(a.addr, a.write); lat != glat[i] {
			t.Errorf("future-equal trial: access %d latency %d, golden %d", i, lat, glat[i])
		}
	}
	if len(f.cn.seen) != len(f.gn.seen) {
		t.Fatalf("future-equal trial sent %d next-level accesses, golden %d", len(f.cn.seen), len(f.gn.seen))
	}
	for i := range f.cn.seen {
		if f.cn.seen[i] != f.gn.seen[i] {
			t.Errorf("future-equal trial: next-level access %d = %#x, golden %#x", i, f.cn.seen[i], f.gn.seen[i])
		}
	}
	for i := range plane {
		if f.cp.words[i] != plane[i] {
			t.Errorf("future-equal trial: suffix changed memory word %#x", i*4)
		}
	}
	return true
}

// Set 0 of the test geometry holds blocks 0x000, 0x080, 0x100, 0x180, …
// (tag = addr>>7); set 1 holds 0x020, 0x0A0, ….

func TestFutureEqualWayPermutedSet(t *testing.T) {
	f := newFuturePair(t, []acc{{0x000, false}, {0x080, true}})
	// Swap the two ways of set 0 in the trial: same tags, same recency
	// order, different positions.
	f.c.lines[0], f.c.lines[1] = f.c.lines[1], f.c.lines[0]
	if f.c.StateEqualRanked(f.g) {
		t.Fatal("way-permuted set compared equal way by way")
	}
	if !f.verdict(t, []acc{{0x000, false}, {0x100, false}, {0x080, true}, {0x180, false}}) {
		t.Error("way-permuted set: want equal")
	}
}

func TestFutureEqualGarbageTagEvictedClean(t *testing.T) {
	f := newFuturePair(t, []acc{{0x000, false}, {0x080, false}})
	// A garbage tag in the trial's LRU way (no residue record): the
	// suffix never asks for either tag and evicts the line clean.
	f.c.lines[0].tag = 6
	if !f.verdict(t, []acc{{0x100, false}, {0x080, false}, {0x180, false}}) {
		t.Error("garbage tag never hit, evicted clean: want equal")
	}
}

func TestFutureEqualGarbageTagHit(t *testing.T) {
	f := newFuturePair(t, []acc{{0x000, false}, {0x080, false}})
	f.c.lines[0].tag = 6
	if f.verdict(t, []acc{{0x000, false}}) {
		t.Error("the golden suffix hits the original tag: want not equal")
	}
}

func TestFutureEqualDirtyMismatch(t *testing.T) {
	prefix := []acc{{0x000, true}, {0x080, false}}
	// Never evicted in the suffix: the dirty bit is never observed.
	f := newFuturePair(t, prefix)
	f.c.lines[0].dirty = false
	if !f.verdict(t, []acc{{0x000, false}, {0x020, false}, {0x080, false}}) {
		t.Error("dirty/clean mismatch never evicted: want equal")
	}
	// Evicted: the golden run writes the line back, the trial does not.
	f = newFuturePair(t, prefix)
	f.c.lines[0].dirty = false
	if f.verdict(t, []acc{{0x100, false}}) {
		t.Error("dirty/clean mismatch evicted: want not equal")
	}
}

func TestFutureEqualLostWriteBackResidue(t *testing.T) {
	prefix := []acc{{0x000, true}, {0x080, false}}
	fire := func(f *futurePair) {
		f.c.frec = faultRec{}
		if f.c.InjectDirtyClear(0, false) || !f.c.InjectDirtyClear(0, true) {
			t.Fatal("dirty clear did not fire")
		}
	}
	f := newFuturePair(t, prefix)
	fire(f)
	if !f.verdict(t, []acc{{0x000, false}, {0x080, false}}) {
		t.Error("fired lost write-back never evicted: want equal")
	}
	// Re-dirtied, then evicted dirty: the write-back carries the data,
	// settling is a no-op.
	f = newFuturePair(t, prefix)
	fire(f)
	if !f.verdict(t, []acc{{0x000, true}, {0x080, false}, {0x100, false}}) {
		t.Error("re-dirtied lost write-back evicted dirty: want equal")
	}
	// Evicted clean: the write-back is lost.
	f = newFuturePair(t, prefix)
	fire(f)
	if f.verdict(t, []acc{{0x080, false}, {0x100, false}}) {
		t.Error("lost write-back evicted clean: want not equal")
	}
}

func TestFutureEqualPendingLostWriteBack(t *testing.T) {
	f := newFuturePair(t, []acc{{0x000, false}})
	if f.c.InjectDirtyClear(0, false) {
		t.Fatal("arming must not fire")
	}
	if f.verdict(t, nil) {
		t.Error("pending lost write-back: want not equal even with no suffix")
	}
}

func TestFutureEqualDataFlipResidue(t *testing.T) {
	prefix := []acc{{0x000, false}, {0x080, false}}
	f := newFuturePair(t, prefix)
	if fired, _, _ := f.c.InjectDataFlip(4, 3); !fired {
		t.Fatal("flip did not fire")
	}
	// Evicted clean: the refill reverts the word — a memory write.
	if f.verdict(t, []acc{{0x080, false}, {0x100, false}}) {
		t.Error("frData line evicted clean: want not equal")
	}
	// Never evicted: the residue never settles.
	f = newFuturePair(t, prefix)
	f.c.InjectDataFlip(4, 3)
	if !f.verdict(t, []acc{{0x000, false}, {0x020, false}}) {
		t.Error("frData line never evicted: want equal")
	}
}

func TestFutureEqualTagFlipResidue(t *testing.T) {
	// Clean line: eviction is timing-only.
	f := newFuturePair(t, []acc{{0x000, false}, {0x080, false}})
	if !f.c.InjectTagFlip(0x000, 1) { // tag 0 -> 2 (block 0x100)
		t.Fatal("tag flip did not fire")
	}
	if !f.verdict(t, []acc{{0x080, false}, {0x180, false}}) {
		t.Error("frTag line evicted clean: want equal")
	}
	// Dirty line: eviction writes the block to the alias.
	f = newFuturePair(t, []acc{{0x000, true}, {0x080, false}})
	f.c.InjectTagFlip(0x000, 1)
	if f.verdict(t, []acc{{0x080, false}, {0x180, false}}) {
		t.Error("frTag line evicted dirty: want not equal")
	}
}

func TestFutureEqualTLBAliasEntry(t *testing.T) {
	cfg := TLBConfig{Name: "t", Entries: 4, Assoc: 2, PageBytes: 4096, MissLatency: 30}
	g, _ := NewTLB(cfg)
	c, _ := NewTLB(cfg)
	// Pages 0 and 2 share set 0.
	for _, a := range []uint32{0, 2 << 12} {
		g.Translate(a)
		c.Translate(a)
	}
	if !c.InjectEntryFlip(0, 3) { // page 0's entry now aliases tag 8
		t.Fatal("entry flip did not fire")
	}
	boundary := g.CloneInto(nil)
	suffix := []uint32{2 << 12, 4 << 12, 2 << 12, 6 << 12}
	g.log = &accessLog{}
	var glat []int
	for _, a := range suffix {
		glat = append(glat, g.Translate(a))
	}
	sl := indexLog(g.log, g.sets)
	if !c.futureEqual(boundary, &sl, 0) {
		t.Fatal("TLB alias entry never hit: want equal")
	}
	for i, a := range suffix {
		if lat := c.Translate(a); lat != glat[i] {
			t.Errorf("translate %d latency %d, golden %d", i, lat, glat[i])
		}
	}
	// The same entry is not future-equal once the golden suffix asks
	// for page 0 again.
	c2, _ := NewTLB(cfg)
	for _, a := range []uint32{0, 2 << 12} {
		c2.Translate(a)
	}
	c2.InjectEntryFlip(0, 3)
	g2 := boundary.CloneInto(nil)
	g2.log = &accessLog{}
	g2.Translate(0)
	sl = indexLog(g2.log, g2.sets)
	if c2.futureEqual(boundary, &sl, 0) {
		t.Error("TLB alias entry whose page is translated again: want not equal")
	}
}

func TestSetLogSuffixPositions(t *testing.T) {
	l := &accessLog{}
	for i, s := range []uint32{0, 1, 0, 2, 0, 1} {
		l.add(s, uint32(10+i), i%2 == 1)
	}
	sl := indexLog(l, 4)
	got := sl.suffix(0, 3)
	if len(got) != 1 || got[0] != 14<<1 {
		t.Errorf("set 0 after position 3 = %v, want [%d]", got, 14<<1)
	}
	if got := sl.suffix(1, 0); len(got) != 2 || got[0] != 11<<1|1 || got[1] != 15<<1|1 {
		t.Errorf("set 1 from 0 = %v", got)
	}
	if got := sl.suffix(3, 0); len(got) != 0 {
		t.Errorf("set 3 = %v, want empty", got)
	}
}

// TestFutureEqualSoundProperty perturbs a trial cache at random — way
// swaps, garbage tags, dirty-bit flips and each residue kind — and
// checks that whenever the verdict is "equal", the trial behaves
// exactly like the golden cache over the whole suffix (verdict does the
// checking). It also requires both verdicts to occur, so the property
// is not vacuous.
func TestFutureEqualSoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	addr := func() uint32 { return uint32(rng.Intn(8))<<7 | uint32(rng.Intn(4))<<5 }
	accs := func(n int) []acc {
		out := make([]acc, n)
		for i := range out {
			out[i] = acc{addr(), rng.Intn(3) == 0}
		}
		return out
	}
	var equal, differ int
	for iter := 0; iter < 3000; iter++ {
		f := newFuturePair(t, accs(12))
		switch rng.Intn(6) {
		case 0:
			s := uint32(rng.Intn(4)) * 2
			f.c.lines[s], f.c.lines[s+1] = f.c.lines[s+1], f.c.lines[s]
		case 1:
			f.c.lines[rng.Intn(8)].tag ^= 1 << rng.Intn(3)
		case 2:
			i := rng.Intn(8)
			f.c.lines[i].dirty = !f.c.lines[i].dirty
		case 3:
			f.c.InjectTagFlip(addr(), uint8(rng.Intn(3)))
		case 4:
			f.c.InjectDataFlip(addr()+uint32(rng.Intn(8))*4, uint8(rng.Intn(32)))
		case 5:
			a := addr()
			f.c.InjectDirtyClear(a, false)
			f.c.InjectDirtyClear(a, true)
		}
		if f.verdict(t, accs(rng.Intn(10))) {
			equal++
		} else {
			differ++
		}
		if t.Failed() {
			t.Fatalf("iteration %d", iter)
		}
	}
	if equal == 0 || differ == 0 {
		t.Errorf("verdicts: %d equal, %d differ; want both", equal, differ)
	}
}
