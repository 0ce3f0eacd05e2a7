package pipeline

import (
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/obs"
)

// checkStallLedger asserts the attribution invariant on every slot
// class: used slots plus per-cause stall counts must exactly equal
// width × cycles — no slot unaccounted, none double-charged.
func checkStallLedger(t *testing.T, res Result) {
	t.Helper()
	for _, sb := range []struct {
		name string
		b    obs.SlotBreakdown
	}{
		{"dispatch", res.Stalls.Dispatch},
		{"issue", res.Stalls.Issue},
		{"commit", res.Stalls.Commit},
	} {
		slots := uint64(sb.b.Width) * res.Cycles
		if sb.b.Slots != slots {
			t.Errorf("%s: Slots = %d, want width %d × cycles %d = %d",
				sb.name, sb.b.Slots, sb.b.Width, res.Cycles, slots)
		}
		if got := sb.b.Used + sb.b.StallSum(); got != slots {
			t.Errorf("%s: used %d + stalls %d = %d, want %d (unattributed slots)",
				sb.name, sb.b.Used, sb.b.StallSum(), got, slots)
		}
	}
	if res.Stalls.Cycles != res.Cycles {
		t.Errorf("Stalls.Cycles = %d, want %d", res.Stalls.Cycles, res.Cycles)
	}
}

func TestStallAttributionInvariant(t *testing.T) {
	src := loopProgram(300)
	configs := map[string]config.Machine{
		"baseline":  config.Starting(),
		"reese":     config.Starting().WithReese(),
		"spared":    config.Starting().WithReese().WithSpares(2, 1),
		"dup":       config.Starting().WithDupDispatch(),
		"wrongpath": config.Starting().WithWrongPath(),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			res := runOn(t, cfg, src, nil)
			if !res.Halted {
				t.Fatal("did not halt")
			}
			checkStallLedger(t, res)
			// With no faults, the commit slots that did work are exactly
			// the retired instructions (dup pairs use two slots each).
			want := res.Committed
			if cfg.Reese.Mode == config.ModeDupDispatch {
				want *= 2
			}
			if res.Stalls.Commit.Used != want {
				t.Errorf("commit used = %d, want %d", res.Stalls.Commit.Used, want)
			}
		})
	}
}

func TestStallAttributionInvariantUnderFaults(t *testing.T) {
	// Fault recovery force-retires and replays instructions outside the
	// commit stage; the slot ledger must still balance.
	src := loopProgram(300)
	res := runOn(t, config.Starting().WithReese(), src, &fault.AtStruct{Seq: 40, Bit: 3})
	if res.Recoveries == 0 {
		t.Fatal("fault did not trigger a recovery")
	}
	checkStallLedger(t, res)
}

func TestStallCausesAreInformative(t *testing.T) {
	// A REESE machine must attribute some commit stalls to the recheck
	// pipeline, and a baseline run of a dependent chain must see
	// issue-wait stalls.
	reese := runOn(t, config.Starting().WithReese(), loopProgram(300), nil)
	if reese.Stalls.Commit.Stalls[obs.CauseRecheckPending] == 0 {
		t.Error("REESE run charged no recheck-pending commit stalls")
	}
	dep := `
		li r9, 400
		li r2, 1
	loop:
		mul r2, r2, r9
		mul r2, r2, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	base := runOn(t, config.Starting(), dep, nil)
	if base.Stalls.Commit.Stalls[obs.CauseExecLatency]+base.Stalls.Commit.Stalls[obs.CauseIssueWait] == 0 {
		t.Error("dependent chain charged no latency/operand-wait commit stalls")
	}
	if base.Stalls.Dispatch.Stalls[obs.CauseFetchEmpty] == 0 {
		t.Error("no dispatch fetch-empty stalls on a branchy loop")
	}
}
