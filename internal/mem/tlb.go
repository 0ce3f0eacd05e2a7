package mem

import "fmt"

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	Name string
	// Entries is the number of TLB entries. Assoc is the associativity
	// (Entries/Assoc sets). PageBytes is the page size.
	Entries   uint32
	Assoc     uint32
	PageBytes uint32
	// MissLatency is the page-walk cost in cycles on a TLB miss
	// (SimpleScalar's default is 30).
	MissLatency int
}

// Validate checks the configuration.
func (c TLBConfig) Validate() error {
	if c.PageBytes == 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("tlb %s: page size %d not a power of two", c.Name, c.PageBytes)
	}
	if c.Assoc == 0 || c.Entries == 0 || c.Entries%c.Assoc != 0 {
		return fmt.Errorf("tlb %s: bad entries/assoc %d/%d", c.Name, c.Entries, c.Assoc)
	}
	sets := c.Entries / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// TLB models translation timing: a hit is free (folded into the cache
// access), a miss adds MissLatency cycles.
type TLB struct {
	cfg   TLBConfig
	sets  uint32
	lines []line
	clock uint64
	stats CacheStats
	log   *accessLog // golden-run access log (future.go); nil when off
}

// NewTLB builds a TLB.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Entries / cfg.Assoc
	return &TLB{cfg: cfg, sets: sets, lines: make([]line, cfg.Entries)}, nil
}

// Stats returns the TLB's counters.
func (t *TLB) Stats() CacheStats { return t.stats }

// Translate looks up the page containing addr, returning the added
// latency (0 on a hit, MissLatency on a miss).
func (t *TLB) Translate(addr uint32) int {
	t.stats.Accesses++
	t.clock++
	page := addr / t.cfg.PageBytes
	set := page & (t.sets - 1)
	tag := page / t.sets
	if t.log != nil {
		t.log.add(set, tag, false)
	}
	base := set * t.cfg.Assoc
	lines := t.lines[base : base+t.cfg.Assoc]
	if w := hitWay(lines, tag); w >= 0 {
		t.stats.Hits++
		lines[w].lru = t.clock
		return 0
	}
	t.stats.Misses++
	lines[victimWay(lines)] = line{tag: tag, valid: true, lru: t.clock}
	return t.cfg.MissLatency
}
