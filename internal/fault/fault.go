// Package fault injects soft errors into the simulated pipeline. The
// original REESE model (§2, §4.2) is a single bit flip in the latched
// outcome of a P-stream instruction — exactly the fault the R-stream
// comparator catches by construction. This package generalizes that to a
// structure-addressed model: an Injection names the microarchitectural
// structure the transient lands in, and the pipeline exposes a narrow
// hook at each site. Structures inside the sphere of replication
// (latched results, LSQ entries, RSQ operand copies) are covered by the
// comparator; structures outside it (the architectural register file
// after commit, the fetch PC, the comparator itself) are not — measuring
// that boundary is the point of a campaign.
package fault

import "reese/internal/emu"

// NoBit is the FaultBit value meaning "no fault".
const NoBit uint8 = 255

// Struct names the microarchitectural structure a fault corrupts.
type Struct uint8

// Fault target structures. StructResult is the zero value so legacy
// Injection literals keep their meaning (a latched-result flip).
const (
	// StructResult flips a bit in the latched P-stream outcome: the
	// destination-register value, or the next-PC for result-less control
	// transfers, or the store value for stores. In-sphere: the paper's
	// original model.
	StructResult Struct = iota
	// StructLSQAddr flips a bit in a load/store effective address held in
	// the LSQ. In-sphere: the R-stream recomputes the address.
	StructLSQAddr
	// StructLSQStoreData flips a bit in the store data held in the LSQ
	// until commit. In-sphere: the comparator checks store values.
	StructLSQStoreData
	// StructRegFile flips a bit in one architectural register after
	// commit. Outside the sphere: both streams read the same corrupted
	// value, so they agree on wrong results.
	StructRegFile
	// StructFetchPC flips a bit in the fetch PC. Outside the sphere: both
	// streams execute the same wrong instruction path.
	StructFetchPC
	// StructRSQOperand flips a bit in an operand value copied into the
	// R-stream Queue at enqueue. The P-stream used the clean value, so the
	// recomputation diverges and the comparator fires — unless the flip is
	// logically masked (e.g. a branch whose direction is unchanged).
	StructRSQOperand
	// StructRSQResult flips a bit in the P-stream outcome stored in the
	// RSQ awaiting comparison — the copy that both feeds the comparator
	// and commits after verification. The recomputation disagrees with
	// it, so the fault is detected and recovery replays the clean trace.
	StructRSQResult
	// StructComparator disables one bit lane of the comparator while
	// corrupting that bit of the checked value — a fault in the checker
	// itself. Outside the sphere: the corruption commits unchecked.
	StructComparator

	// Memory-hierarchy structures — outside the sphere of replication.
	// These fire through the MemSiteInjector hook and carry a victim
	// address (AtStruct.Addr) in addition to the sequence number.

	// StructMemWord flips a bit of one architectural main-memory word.
	StructMemWord
	// StructL1DTag flips a tag bit of the L1D line holding the victim
	// address: the original address pseudo-misses, the aliased address
	// wrong-line hits, and a dirty eviction writes back to the alias.
	StructL1DTag
	// StructL1DDirty clears the dirty bit of the victim L1D line — a
	// lost write-back that silently reverts the line at eviction.
	StructL1DDirty
	// StructL1DData flips a data bit of the word behind a resident L1D
	// line; a clean eviction's refill restores it, a dirty one persists.
	StructL1DData
	// StructL1ITag flips a tag bit of the L1I line holding the victim
	// PC. I-lines are never dirty, so the upset is timing-only.
	StructL1ITag
	// StructL2Line flips one or two adjacent data bits of the word
	// behind a resident L2 line. With SECDED ECC configured on L2,
	// single-bit upsets are corrected (OutcomeCorrected) and double-bit
	// upsets are detected-uncorrectable.
	StructL2Line
	// StructITLB flips a tag bit of the I-TLB entry covering the victim
	// PC's page (translation timing perturbation).
	StructITLB
	// StructDTLB flips a tag bit of the D-TLB entry covering the victim
	// data address's page.
	StructDTLB

	// NumStructs counts the structures above.
	NumStructs
)

var structNames = [NumStructs]string{
	"result", "lsq-addr", "lsq-store-data", "regfile", "fetch-pc",
	"rsq-operand", "rsq-result", "comparator",
	"mem-word", "l1d-tag", "l1d-dirty", "l1d-data", "l1i-tag",
	"l2-line", "itlb-entry", "dtlb-entry",
}

// String returns the campaign-table name of the structure.
func (s Struct) String() string {
	if s < NumStructs {
		return structNames[s]
	}
	return "unknown"
}

// ParseStruct maps a structure name (as printed by String) back to its
// value.
func ParseStruct(name string) (Struct, bool) {
	for i, n := range structNames {
		if n == name {
			return Struct(i), true
		}
	}
	return 0, false
}

// InSphere reports whether the structure lies inside REESE's sphere of
// replication, i.e. whether the comparator is expected to observe a
// corruption there. Campaign smoke tests assert 100% coverage only for
// in-sphere structures.
func (s Struct) InSphere() bool {
	switch s {
	case StructResult, StructLSQAddr, StructLSQStoreData, StructRSQOperand, StructRSQResult:
		return true
	}
	return false
}

// NeedsRSQ reports whether the structure only exists on a machine with
// an R-stream Queue (REESE mode).
func (s Struct) NeedsRSQ() bool {
	switch s {
	case StructRSQOperand, StructRSQResult, StructComparator:
		return true
	}
	return false
}

// InMemHierarchy reports whether the structure lives in the memory
// hierarchy (fires through the MemSiteInjector hook and needs a victim
// address).
func (s Struct) InMemHierarchy() bool {
	switch s {
	case StructMemWord, StructL1DTag, StructL1DDirty, StructL1DData,
		StructL1ITag, StructL2Line, StructITLB, StructDTLB:
		return true
	}
	return false
}

// Level names the physical plane the structure belongs to — the
// ground-truth label the localization pass is scored against. One of
// "ram", "l1", "l2", "tlb", "pipeline".
func (s Struct) Level() string {
	switch s {
	case StructMemWord:
		return "ram"
	case StructL1DTag, StructL1DDirty, StructL1DData, StructL1ITag:
		return "l1"
	case StructL2Line:
		return "l2"
	case StructITLB, StructDTLB:
		return "tlb"
	}
	return "pipeline"
}

// LevelGroup maps a structure to the coarse 3-way localization target
// the symptom classifier predicts: "ram", "cache" (L1/L2/TLB), or
// "pipeline".
func (s Struct) LevelGroup() string {
	switch s.Level() {
	case "ram":
		return "ram"
	case "l1", "l2", "tlb":
		return "cache"
	}
	return "pipeline"
}

// Structures returns the fault targets that exist on a machine,
// depending on whether it has an R-stream Queue.
func Structures(rsq bool) []Struct {
	out := make([]Struct, 0, int(NumStructs))
	for s := Struct(0); s < NumStructs; s++ {
		if s.NeedsRSQ() && !rsq {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Injection describes one fault applied at the writeback latch site.
type Injection struct {
	Struct Struct
	Bit    uint8
	// Reg selects the victim register for StructRegFile.
	Reg uint8
}

// Injector decides, per completing P-stream instruction, whether to
// inject a fault.
type Injector interface {
	// Decide is called once per P-stream completion with the
	// instruction's sequence number and oracle trace. Returning ok=false
	// injects nothing.
	Decide(seq uint64, tr emu.Trace) (Injection, bool)
}

// ArchState is the slice of architectural state an oracle-site fault can
// corrupt. *emu.Machine implements it.
type ArchState interface {
	// CorruptPC XORs mask into the fetch PC.
	CorruptPC(mask uint32)
	// CorruptReg XORs mask into register r (r0 stays hardwired to zero).
	CorruptReg(r uint8, mask uint32)
}

// RSQCorruption describes a fault landing in an R-stream Queue entry at
// enqueue time. Masks are XORed into the stored copies; CompIgnoreMask
// blinds the comparator to those bit lanes (a checker fault). Operand
// masks corrupt only the RSQ's operand copies — the architectural values
// the P-stream used stay clean, so recovery replay is exact.
type RSQCorruption struct {
	OperandAMask   uint32
	OperandBMask   uint32
	ResultMask     uint32
	NextPCMask     uint32
	AddrMask       uint32
	StoreMask      uint32
	CompIgnoreMask uint32
	Bit            uint8
}

// SiteInjector extends Injector with the structure-addressed hook sites.
// The pipeline type-asserts its injector once at construction; plain
// Injectors only see the writeback latch site.
type SiteInjector interface {
	Injector
	// OracleStep is called before each oracle instruction executes, with
	// the oracle's instruction count; a fired fault corrupts architectural
	// state directly (regfile, fetch PC).
	OracleStep(icount uint64, arch ArchState) bool
	// RSQEnqueue is called as each instruction's entry is appended to the
	// R-stream Queue; a fired fault corrupts the stored copies.
	RSQEnqueue(seq uint64, tr emu.Trace) (RSQCorruption, bool)
}

// CacheSel selects a cache level for a memory-hierarchy fault.
type CacheSel uint8

// Cache levels a MemPlane can target.
const (
	SelL1I CacheSel = iota
	SelL1D
	SelL2
)

// FlipResult reports what a data-bit flip did at an (optionally
// ECC-protected) cache level.
type FlipResult uint8

// DataFlip results.
const (
	// FlipNone: the target line is not resident; nothing happened.
	FlipNone FlipResult = iota
	// FlipApplied: the bits were flipped in the architectural word.
	FlipApplied
	// FlipCorrected: SECDED corrected the single-bit upset in place.
	FlipCorrected
	// FlipDetected: SECDED flagged a double-bit upset as detected-
	// uncorrectable; the flips were applied (the data is lost).
	FlipDetected
)

// MemPlane is the memory hierarchy as seen by an injector: the
// architectural word plane plus the timing caches and TLBs. The
// pipeline provides an adapter over its hierarchy and oracle memory.
type MemPlane interface {
	// CorruptWord XORs mask into the architectural memory word at addr.
	CorruptWord(addr, mask uint32) bool
	// TagFlip flips a tag bit of the line holding addr at level l.
	TagFlip(l CacheSel, addr uint32, bit uint8) bool
	// DirtyClear arms/fires a lost write-back on the L1D line at addr.
	// lastSeq is the dynamic index of the block's last golden store; the
	// clear may only fire after it retires (earlier, the block's own
	// later stores would re-dirty the line and always mask the upset).
	DirtyClear(addr uint32, lastSeq uint64) bool
	// DataFlip flips data bit(s) behind a resident line at level l.
	DataFlip(l CacheSel, addr uint32, bits uint8) FlipResult
	// TLBEntryFlip flips a tag bit of the TLB entry covering addr
	// (data=true for the D-TLB, false for the I-TLB).
	TLBEntryFlip(data bool, addr uint32, bit uint8) bool
}

// MemSiteInjector is a SiteInjector that can also fire into the memory
// hierarchy. The pipeline type-asserts for it once and calls MemStep
// through a narrow nil-gated hook, like the other sites.
type MemSiteInjector interface {
	SiteInjector
	// MemStep is called before each oracle instruction executes; a fired
	// fault perturbs the memory hierarchy through mp.
	MemStep(icount uint64, mp MemPlane) bool
}

// None never injects. The zero value is ready to use.
type None struct{}

// Decide implements Injector.
func (None) Decide(uint64, emu.Trace) (Injection, bool) { return Injection{}, false }

// ComparatorObserves reports whether the RSQ comparator has anything to
// check for tr: a register result, a store value, or a control-transfer
// target. halt/out have no comparable outcome. Campaign victim sampling
// uses this to aim comparable-outcome faults at eligible instructions.
func ComparatorObserves(tr emu.Trace) bool {
	op := tr.Inst.Op
	return tr.HasResult || op.IsStore() || op.IsControl()
}

// AtStruct injects one fault into structure Struct at the first eligible
// victim instruction at or after sequence number Seq. "Eligible" depends
// on the structure (a store-data fault needs a store, an address fault a
// memory op, a comparable-outcome fault an instruction the comparator
// observes); skipping forward keeps the injector robust when Seq points
// at an ineligible instruction. Oracle-site structures key on the
// oracle's instruction count instead of the dispatch sequence.
type AtStruct struct {
	Struct Struct
	Seq    uint64
	Bit    uint8
	// Reg is the victim register for StructRegFile (r0 never fires).
	Reg uint8
	// Addr is the victim address for memory-hierarchy structures: the
	// memory word, the cache line, the page — whichever the structure
	// targets.
	Addr uint32
	// Seq2 is used by StructL1DDirty only: the dynamic index of the
	// victim block's last golden store. The campaign plans Seq at the
	// block's first store (so the pre-store snapshot covers every store
	// to the block) and the dirty-clear fires once Seq2 has retired.
	Seq2 uint64

	fired    bool
	firedSeq uint64
	// ECC verdicts recorded when an L2 data flip meets a SECDED code.
	eccCorrected bool
	eccDetected  bool
}

var _ MemSiteInjector = (*AtStruct)(nil)

// Fired reports whether the fault has been injected.
func (a *AtStruct) Fired() bool { return a.fired }

// FiredSeq returns the sequence number (or oracle instruction count) the
// fault actually landed on; valid only once Fired.
func (a *AtStruct) FiredSeq() uint64 { return a.firedSeq }

// EccCorrected reports whether the fault was absorbed by ECC.
func (a *AtStruct) EccCorrected() bool { return a.eccCorrected }

// EccDetected reports whether ECC flagged the fault as detected-
// uncorrectable (the corruption was applied and the data is lost).
func (a *AtStruct) EccDetected() bool { return a.eccDetected }

func (a *AtStruct) mask() uint32 { return 1 << (a.Bit % 32) }

// Decide implements the writeback latch site (result, LSQ address, LSQ
// store data).
func (a *AtStruct) Decide(seq uint64, tr emu.Trace) (Injection, bool) {
	if a.fired || seq < a.Seq {
		return Injection{}, false
	}
	op := tr.Inst.Op
	switch a.Struct {
	case StructResult:
		if !ComparatorObserves(tr) {
			return Injection{}, false
		}
	case StructLSQAddr:
		if !op.IsMem() {
			return Injection{}, false
		}
	case StructLSQStoreData:
		if !op.IsStore() {
			return Injection{}, false
		}
	default:
		return Injection{}, false
	}
	a.fired = true
	a.firedSeq = seq
	return Injection{Struct: a.Struct, Bit: a.Bit % 32}, true
}

// OracleStep implements the architectural site (regfile, fetch PC).
func (a *AtStruct) OracleStep(icount uint64, arch ArchState) bool {
	if a.fired || icount < a.Seq {
		return false
	}
	switch a.Struct {
	case StructFetchPC:
		arch.CorruptPC(a.mask())
	case StructRegFile:
		if a.Reg%32 == 0 {
			return false // r0 is hardwired; nothing to corrupt
		}
		arch.CorruptReg(a.Reg%32, a.mask())
	default:
		return false
	}
	a.fired = true
	a.firedSeq = icount
	return true
}

// RSQEnqueue implements the RSQ site (operand copy, stored P-result,
// comparator lane).
func (a *AtStruct) RSQEnqueue(seq uint64, tr emu.Trace) (RSQCorruption, bool) {
	var c RSQCorruption
	if a.fired || seq < a.Seq || !ComparatorObserves(tr) {
		return c, false
	}
	m := a.mask()
	c.Bit = a.Bit % 32
	op := tr.Inst.Op
	switch a.Struct {
	case StructRSQOperand:
		// Corrupt whichever operand slot the instruction actually reads;
		// when it reads both, the bit's parity picks one.
		r1, r2 := op.ReadsRs1(), op.ReadsRs2()
		switch {
		case r1 && r2 && a.Bit&1 == 1:
			c.OperandBMask = m
		case r2 && !r1:
			c.OperandBMask = m
		default:
			c.OperandAMask = m
		}
	case StructRSQResult, StructComparator:
		// Corrupt the stored copy of whatever field the comparator checks
		// for this instruction kind.
		switch {
		case tr.HasResult:
			c.ResultMask = m
		case op.IsStore():
			c.StoreMask = m
		default: // result-less control transfer
			c.NextPCMask = m
		}
		if a.Struct == StructComparator {
			// A dead comparator lane: the same bit is corrupted AND excluded
			// from the comparison, so the corruption sails through.
			c.CompIgnoreMask = m
		}
	default:
		return RSQCorruption{}, false
	}
	a.fired = true
	a.firedSeq = seq
	return c, true
}

// MemStep implements the memory-hierarchy site. Cache and TLB targets
// need their victim line resident (a lost write-back additionally
// needs it dirty), so the injector polls every oracle step from Seq
// until the hierarchy is in an eligible state; a fault whose line never
// becomes eligible simply never fires and the trial is masked.
func (a *AtStruct) MemStep(icount uint64, mp MemPlane) bool {
	if a.fired || icount < a.Seq {
		return false
	}
	fired := false
	switch a.Struct {
	case StructMemWord:
		fired = mp.CorruptWord(a.Addr&^3, a.mask())
	case StructL1DTag:
		fired = mp.TagFlip(SelL1D, a.Addr, a.Bit)
	case StructL1ITag:
		fired = mp.TagFlip(SelL1I, a.Addr, a.Bit)
	case StructL1DDirty:
		fired = mp.DirtyClear(a.Addr, a.Seq2)
	case StructL1DData:
		fired = mp.DataFlip(SelL1D, a.Addr, a.Bit%32) != FlipNone
	case StructL2Line:
		switch mp.DataFlip(SelL2, a.Addr, a.Bit%64) {
		case FlipApplied:
			fired = true
		case FlipCorrected:
			fired, a.eccCorrected = true, true
		case FlipDetected:
			fired, a.eccDetected = true, true
		}
	case StructITLB:
		fired = mp.TLBEntryFlip(false, a.Addr, a.Bit)
	case StructDTLB:
		fired = mp.TLBEntryFlip(true, a.Addr, a.Bit)
	default:
		return false
	}
	if fired {
		a.fired = true
		a.firedSeq = icount
	}
	return fired
}

// AtSeq injects a single fault into the instruction with the given
// sequence number. The zero Bit flips bit 0.
type AtSeq struct {
	Seq    uint64
	Bit    uint8
	Struct Struct

	fired bool
}

// Decide implements Injector.
func (a *AtSeq) Decide(seq uint64, tr emu.Trace) (Injection, bool) {
	if a.fired || seq != a.Seq {
		return Injection{}, false
	}
	a.fired = true
	return Injection{Bit: a.Bit % 32, Struct: a.Struct}, true
}

// Fired reports whether the fault has been injected.
func (a *AtSeq) Fired() bool { return a.fired }

// Periodic injects a fault every Interval instructions, cycling through
// bit positions. It drives fault-injection campaigns.
type Periodic struct {
	// Interval is the sequence-number spacing between injections.
	Interval uint64
	// Start offsets the first injection.
	Start uint64

	injected uint64
}

// Decide implements Injector.
func (p *Periodic) Decide(seq uint64, tr emu.Trace) (Injection, bool) {
	if p.Interval == 0 || seq < p.Start || (seq-p.Start)%p.Interval != 0 {
		return Injection{}, false
	}
	p.injected++
	return Injection{Bit: uint8(p.injected % 32)}, true
}

// Injected returns how many faults have been injected.
func (p *Periodic) Injected() uint64 { return p.injected }

// Random injects faults with a fixed per-instruction probability using a
// deterministic xorshift PRNG, so campaigns are reproducible.
type Random struct {
	// PerInst is the injection probability per instruction, expressed as
	// numerator over 2^32 (e.g. 1<<22 ≈ 1 in 1024).
	PerInst uint32

	state    uint64
	injected uint64
}

// NewRandom builds a Random injector with probability num/2^32 per
// instruction and the given seed (0 is replaced with a fixed constant).
func NewRandom(num uint32, seed uint64) *Random {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Random{PerInst: num, state: seed}
}

func (r *Random) next() uint64 {
	// xorshift64*.
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Decide implements Injector.
func (r *Random) Decide(seq uint64, tr emu.Trace) (Injection, bool) {
	v := r.next()
	if uint32(v) >= r.PerInst {
		return Injection{}, false
	}
	r.injected++
	return Injection{Bit: uint8(v>>32) % 32}, true
}

// Injected returns how many faults have been injected.
func (r *Random) Injected() uint64 { return r.injected }

// StuckUnit models a permanent fault in one functional unit: every
// operation executed on unit Unit of kind Kind has bit Bit of its result
// flipped. Unlike the transient Injector faults, this corrupts BOTH the
// P-stream and any redundant execution that lands on the same unit —
// the common-mode case that plain re-execution cannot detect and RESO
// (recomputation with shifted operands, the paper's §3 reference [15])
// can.
type StuckUnit struct {
	// Kind is the fu.Kind value of the faulty unit's class.
	Kind uint8
	// Unit is the index within the class.
	Unit int
	// Bit is the flipped result bit.
	Bit uint8
}

// Mask returns the XOR mask the fault applies to a result computed on
// the faulty unit.
func (s StuckUnit) Mask() uint32 { return 1 << (s.Bit % 32) }

// Hits reports whether an operation executed on (kind, unit) is
// affected.
func (s StuckUnit) Hits(kind uint8, unit int) bool {
	return unit >= 0 && s.Kind == kind && s.Unit == unit
}

// Outcome classifies one injected run against its golden reference.
// Every injection lands in exactly one outcome.
type Outcome uint8

// Outcomes, in classification-precedence order: a hang trumps
// detection (the machine never finished), detection splits into
// recovered/not by final-state agreement, and undetected runs split
// into masked/SDC the same way.
const (
	// OutcomeDetected: the comparator fired but the run did not end in
	// the golden architectural state (detection without clean recovery).
	OutcomeDetected Outcome = iota
	// OutcomeRecovered: detected, recovered, and the final state matches
	// the golden run exactly — REESE's full success path.
	OutcomeRecovered
	// OutcomeSDC: silent data corruption — no detection, final state
	// differs from golden.
	OutcomeSDC
	// OutcomeMasked: no detection and no architectural effect; the flip
	// was logically or microarchitecturally masked.
	OutcomeMasked
	// OutcomeHang: the no-commit watchdog terminated the run.
	OutcomeHang
	// OutcomeCorrected: an ECC-protected structure absorbed the upset —
	// corrected in place, no architectural effect, no detection needed.
	// Counted as effective (the fault reached real state) but never as
	// an escape.
	OutcomeCorrected

	// NumOutcomes counts the outcomes above.
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{"detected", "recovered", "sdc", "masked", "hang", "corrected"}

// String returns the campaign-table name of the outcome.
func (o Outcome) String() string {
	if o < NumOutcomes {
		return outcomeNames[o]
	}
	return "unknown"
}

// Apply corrupts the latched P-stream outcomes of tr according to inj,
// returning the corrupted (result, nextPC, addr, storeValue) tuple. The
// faulted field depends on the target structure and instruction kind,
// mirroring where a transient in the datapath would land.
func Apply(inj Injection, tr emu.Trace) (result, nextPC, addr, storeValue uint32) {
	result = tr.Result
	nextPC = tr.NextPC
	addr = tr.Addr
	storeValue = tr.StoreValue
	mask := uint32(1) << (inj.Bit % 32)
	op := tr.Inst.Op
	switch {
	case inj.Struct == StructLSQAddr && op.IsMem():
		addr ^= mask
	case inj.Struct == StructLSQStoreData && op.IsStore():
		storeValue ^= mask
	case inj.Struct == StructLSQAddr || inj.Struct == StructLSQStoreData:
		// An LSQ fault aimed at a non-memory instruction: nothing to
		// corrupt in the latch plane; fall through to the result so the
		// injection is never silently dropped.
		fallthrough
	case inj.Struct == StructResult:
		switch {
		case op.IsStore():
			storeValue ^= mask
		case op.IsControl() && !tr.HasResult:
			nextPC ^= mask
		case tr.HasResult:
			result ^= mask
		default:
			// halt/out and friends: fault the next PC (control corruption).
			nextPC ^= mask
		}
	default:
		// Oracle- and RSQ-site structures never reach Apply; treat any
		// stray injection as a result fault.
		switch {
		case op.IsStore():
			storeValue ^= mask
		case tr.HasResult:
			result ^= mask
		default:
			nextPC ^= mask
		}
	}
	return result, nextPC, addr, storeValue
}
