package memsim

import "twochains/internal/model"

// Test hooks. No simulation pre-warms or empties a hierarchy in place (a
// finished system releases its tag arrays instead), but the model tests,
// the benchmarks and FuzzHierarchy drive one through these.

// warmLines preloads [addr, addr+size) into the whole hierarchy, modelling
// code or data that is hot from previous use (e.g. a loaded library's
// function body after its first invocations).
func (h *Hierarchy) warmLines(addr uint64, size int) {
	if size <= 0 {
		return
	}
	firstLine := h.line(addr)
	lastLine := h.line(addr + uint64(size) - 1)
	for line := firstLine; ; line = (line + 1) & lineMask {
		h.l2.touch(line)
		h.l3.touch(line)
		h.llc.touch(line)
		if line == lastLine {
			break
		}
	}
}

// reset empties all cache contents, prefetch streams and statistics.
func (h *Hierarchy) reset() {
	h.l2.reset()
	h.l3.reset()
	h.llc.reset()
	h.streams = [model.PrefetchStreams]stream{}
	h.useCtr = 0
	h.stats = Stats{}
}
