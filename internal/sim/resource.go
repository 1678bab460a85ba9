package sim

// Resource models a serially reusable unit (a NIC DMA engine, a wire, a CPU
// core) as a single FIFO server: work items occupy it back to back, and a
// request issued while the resource is busy is queued behind the current
// occupant. This captures pipelining: a stream of messages through a chain
// of Resources overlaps exactly as hardware stages would. The zero value is
// an idle resource.
type Resource struct {
	nextFree Time
	busy     Duration // total busy time, for utilization reporting
}

// Claim reserves the resource for dur starting no earlier than now, queueing
// behind earlier work. It returns the time at which this work completes.
// The caller typically schedules the downstream event at the returned time.
func (r *Resource) Claim(now Time, dur Duration) (done Time) {
	start := Max(now, r.nextFree)
	done = start.Add(dur)
	r.nextFree = done
	r.busy += dur
	return done
}

// FreeAt returns the earliest time new work could start.
func (r *Resource) FreeAt() Time { return r.nextFree }

// BusyTime returns the cumulative busy duration.
//
//tclint:allow deadexport the ucx and mailbox tests read CPU occupancy through it
func (r *Resource) BusyTime() Duration { return r.busy }
