// Package autoscale grows and shrinks an in-process SeD fleet against the
// scheduler's queue pressure. The controller samples the daemon's stats,
// feeds them through a hysteresis policy, and spawns clone SeDs under load
// or gracefully drains them when the queue stays calm — drain meaning the
// daemon stops receiving new chunks, finishes what it holds, and only then
// deregisters, so a scale-down never requeues a chunk.
package autoscale

// Signals is one sampled observation of scheduler pressure — the inputs a
// scaling decision is made from.
type Signals struct {
	// QueueDepth is the number of campaigns waiting for a dispatcher.
	QueueDepth int
	// OldestWaitMs is the longest admission-to-now wait among queued
	// campaigns: the deadline-pressure signal. Queue depth alone misses a
	// single starved campaign behind a slow fleet.
	OldestWaitMs float64
	// FleetSize is the controller's current dispatchable fleet (base plus
	// spawned, draining excluded).
	FleetSize int
	// Outstanding sums the scheduler's open requests across the fleet —
	// the work-in-progress signal that keeps a busy-but-unqueued system
	// from scaling down.
	Outstanding int
}

// The hysteresis thresholds.
const (
	// upQueue is the queue depth at which the policy wants another SeD.
	upQueue = 4
	// upWaitMs is the oldest wait, in milliseconds, that counts as pressure
	// even with a shallow queue.
	upWaitMs = 500
	// downIdleTicks is how many consecutive calm samples must pass before
	// a scale-down. Hysteresis: one idle instant between bursts must not
	// shed capacity.
	downIdleTicks = 8
	// coolDownTicks is how many samples after any action the policy stays
	// quiet, so one burst scales in steps instead of jumping straight to
	// max and oscillating.
	coolDownTicks = 4
	// downOutstanding is the most open requests the fleet may hold while
	// still counting as calm: a trickle of work should not pin an
	// over-provisioned fleet forever.
	downOutstanding = 2
)

// policy is the hysteresis scaling policy: scale up under sustained queue
// or wait pressure, scale down only after the system has stayed calm for a
// run of consecutive samples, and never act twice within the cool-down
// window. decide mutates internal counters and is not safe for concurrent
// use — the controller calls it from its single sampler goroutine.
type policy struct {
	// min and max bound the fleet size. decide never proposes a fleet
	// below min or above max.
	min, max int

	cooldown int
	calm     int
}

// decide folds one observation into the policy state and returns the
// action: +1 to spawn a SeD, -1 to drain one, 0 to hold.
func (p *policy) decide(sig Signals) int {
	coolingDown := p.cooldown > 0
	if coolingDown {
		p.cooldown--
	}
	pressure := sig.QueueDepth >= upQueue || sig.OldestWaitMs >= upWaitMs
	calm := sig.QueueDepth == 0 && sig.Outstanding <= downOutstanding
	if pressure {
		p.calm = 0
		if sig.FleetSize < p.max && !coolingDown {
			p.cooldown = coolDownTicks
			return 1
		}
		return 0
	}
	if !calm {
		p.calm = 0
		return 0
	}
	p.calm++
	if sig.FleetSize > p.min && p.calm >= downIdleTicks && !coolingDown {
		p.cooldown = coolDownTicks
		p.calm = 0
		return -1
	}
	return 0
}
