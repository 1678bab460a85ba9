package vm

import "fmt"

// JamBodyCap exports the body-table bound to the external fuzz test.
const JamBodyCap = jamBodyCap

// CheckJams verifies the jam tables' invariants: slots sorted by VA and
// disjoint, every region exactly as long as its body with one decoded
// instruction per word, and the body table within its bound.
func (vm *VM) CheckJams() error {
	for i, s := range vm.jams {
		r := &s.region
		if r.End-r.Start != uint64(len(s.body.code)) || len(r.instrs)*8 != len(s.body.code) {
			return fmt.Errorf("slot %d [0x%x,0x%x): %d body bytes, %d instrs",
				i, r.Start, r.End, len(s.body.code), len(r.instrs))
		}
		if i > 0 {
			if p := &vm.jams[i-1].region; p.Start >= r.Start || p.End > r.Start {
				return fmt.Errorf("slots %d [0x%x,0x%x) and %d [0x%x,0x%x) out of order or overlapping",
					i-1, p.Start, p.End, i, r.Start, r.End)
			}
		}
	}
	if len(vm.bodies) > jamBodyCap {
		return fmt.Errorf("body table holds %d bodies, bound %d", len(vm.bodies), jamBodyCap)
	}
	return nil
}
