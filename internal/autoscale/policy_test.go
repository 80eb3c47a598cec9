package autoscale

import "testing"

// calmSig is an idle fleet of size n.
func calmSig(n int) Signals { return Signals{FleetSize: n} }

// hotSig is a deep queue over a fleet of size n.
func hotSig(n int) Signals { return Signals{QueueDepth: 10, FleetSize: n} }

func TestPolicyScalesUpUnderQueuePressure(t *testing.T) {
	p := policy{min: 1, max: 4}
	if got := p.decide(Signals{QueueDepth: upQueue - 1, FleetSize: 1}); got != 0 {
		t.Fatalf("below-threshold queue scaled %+d", got)
	}
	if got := p.decide(hotSig(1)); got != 1 {
		t.Fatalf("deep queue decided %+d, want +1", got)
	}
}

func TestPolicyScalesUpOnWaitPressureAlone(t *testing.T) {
	p := policy{min: 1, max: 4}
	sig := Signals{QueueDepth: 1, OldestWaitMs: upWaitMs + 400, FleetSize: 1}
	if got := p.decide(sig); got != 1 {
		t.Fatalf("starved campaign decided %+d, want +1", got)
	}
}

func TestPolicyRespectsMaxAndCoolDown(t *testing.T) {
	p := policy{min: 1, max: 3}
	if got := p.decide(hotSig(1)); got != 1 {
		t.Fatalf("first pressure tick decided %+d, want +1", got)
	}
	// Cool-down: sustained pressure must not fire again immediately.
	for i := 0; i < coolDownTicks; i++ {
		if got := p.decide(hotSig(2)); got != 0 {
			t.Fatalf("tick %d inside cool-down decided %+d", i, got)
		}
	}
	if got := p.decide(hotSig(2)); got != 1 {
		t.Fatalf("post-cool-down pressure decided %+d, want +1", got)
	}
	// At max the policy holds whatever the pressure.
	for i := 0; i < 10; i++ {
		if got := p.decide(hotSig(3)); got != 0 {
			t.Fatalf("at-max tick %d decided %+d", i, got)
		}
	}
}

func TestPolicyScaleDownNeedsSustainedCalm(t *testing.T) {
	p := policy{min: 1, max: 4}
	for i := 0; i < downIdleTicks-1; i++ {
		if got := p.decide(calmSig(3)); got != 0 {
			t.Fatalf("calm tick %d decided %+d before the idle run completed", i, got)
		}
	}
	// One busy instant resets the calm run.
	if got := p.decide(Signals{QueueDepth: 1, FleetSize: 3}); got != 0 {
		t.Fatalf("busy tick decided %+d", got)
	}
	for i := 0; i < downIdleTicks-1; i++ {
		if got := p.decide(calmSig(3)); got != 0 {
			t.Fatalf("restarted calm tick %d decided %+d", i, got)
		}
	}
	if got := p.decide(calmSig(3)); got != -1 {
		t.Fatalf("sustained calm decided %+d, want -1", got)
	}
}

func TestPolicyNeverShrinksBelowMin(t *testing.T) {
	p := policy{min: 2, max: 4}
	for i := 0; i < 3*downIdleTicks; i++ {
		if got := p.decide(calmSig(2)); got == -1 {
			t.Fatalf("tick %d shrank a fleet already at min", i)
		}
	}
}

func TestPolicyOutstandingWorkBlocksScaleDown(t *testing.T) {
	p := policy{min: 1, max: 4}
	busy := Signals{FleetSize: 3, Outstanding: downOutstanding + 1}
	for i := 0; i < 3*downIdleTicks; i++ {
		if got := p.decide(busy); got == -1 {
			t.Fatalf("tick %d drained a fleet with open requests", i)
		}
	}
	trickle := Signals{FleetSize: 3, Outstanding: downOutstanding}
	for i := 0; i < downIdleTicks-1; i++ {
		p.decide(trickle)
	}
	if got := p.decide(trickle); got != -1 {
		t.Fatalf("fleet with a trickle of work decided %+d, want -1", got)
	}
}
