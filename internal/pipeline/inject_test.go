package pipeline

import (
	"reflect"
	"testing"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
)

// periodic is a multi-fault test injector: it flips a latched result
// every interval sequence numbers from start, cycling the bit position,
// and counts its own firings. Recovery replays re-present sequence
// numbers, so a replayed instruction can be hit again — the recovery
// stress the multi-fault tests want.
type periodic struct {
	fault.None
	interval, start uint64
	fired           uint64
}

func (p *periodic) Decide(seq uint64, tr emu.Trace) (fault.Injection, bool) {
	if seq < p.start || (seq-p.start)%p.interval != 0 {
		return fault.Injection{}, false
	}
	p.fired++
	return fault.Injection{Bit: uint8(p.fired % 32)}, true
}

// organisations lists one machine of every redundancy organisation the
// pipeline models.
var organisations = []struct {
	name string
	cfg  config.Machine
}{
	{"baseline", config.Starting()},
	{"reese", config.Starting().WithReese()},
	{"dup-dispatch", config.Starting().WithDupDispatch()},
	{"reso", config.Starting().WithReese().WithRESO()},
	{"wrong-path", config.Starting().WithReese().WithWrongPath()},
	{"partial", config.Starting().WithReese().WithPartialReexec(4)},
}

// runDigest runs src to halt and returns the result plus the committed
// architectural digest — the state a campaign's oracle classifies.
func runDigest(t *testing.T, cfg config.Machine, src string, inj fault.Injector) (Result, emu.Digest) {
	t.Helper()
	cpu, err := New(cfg, mustProg(t, src), inj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return res, cpu.CommitDigest()
}

// TestFaultFreeInjectorsAgree pins the nil fast path: a nil injector,
// fault.None and a fault aimed past the end of the program must give
// identical results and committed state on every machine organisation.
func TestFaultFreeInjectorsAgree(t *testing.T) {
	src := loopProgram(300)
	for _, tt := range organisations {
		t.Run(tt.name, func(t *testing.T) {
			for _, inj := range []fault.Injector{nil, fault.None{}} {
				cpu, err := New(tt.cfg, mustProg(t, src), inj)
				if err != nil {
					t.Fatal(err)
				}
				if cpu.injector != nil {
					t.Errorf("New(%T) kept an injector; fault-free runs must skip the hook sites", inj)
				}
			}
			res, dig := runDigest(t, tt.cfg, src, nil)
			if !res.Halted {
				t.Fatal("did not halt")
			}
			none, noneDig := runDigest(t, tt.cfg, src, fault.None{})
			past := &fault.AtStruct{Seq: 1 << 40, Bit: 3}
			late, lateDig := runDigest(t, tt.cfg, src, past)
			if past.Fired() {
				t.Fatal("a fault aimed past the program end fired")
			}
			for _, o := range []struct {
				label string
				res   Result
				dig   emu.Digest
			}{{"fault.None", none, noneDig}, {"unfired AtStruct", late, lateDig}} {
				if !reflect.DeepEqual(o.res, res) {
					t.Errorf("%s result differs from nil injector:\n%+v\nvs\n%+v", o.label, o.res, res)
				}
				if o.dig != dig {
					t.Errorf("%s commit digest differs from nil injector", o.label)
				}
			}
		})
	}
}
