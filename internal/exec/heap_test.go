package exec

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// drain pops every pending event of e in heap order.
func drain(e *engine) []event {
	var out []event
	for len(e.events) > 0 {
		out = append(out, e.pop())
	}
	return out
}

func TestRunFiresInTimeOrder(t *testing.T) {
	var e engine
	for _, at := range []float64{5, 1, 3, 2, 4} {
		e.push(event{at: at})
	}
	got := drain(&e)
	if len(got) != 5 {
		t.Fatalf("popped %d events, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if e.now != 5 {
		t.Fatalf("final clock %g, want 5", e.now)
	}
}

func TestFIFOAtSameTimestamp(t *testing.T) {
	var e engine
	for i := 0; i < 10; i++ {
		e.push(event{at: 7, s: i})
	}
	for i, ev := range drain(&e) {
		if ev.s != i {
			t.Fatalf("same-time events not FIFO: pop %d is scenario %d", i, ev.s)
		}
	}
}

// TestPastEventRejected: scheduling before the clock, or at a NaN or
// infinite time, is an invariant violation and panics.
func TestPastEventRejected(t *testing.T) {
	var e engine
	e.push(event{at: 3})
	e.pop()
	for _, at := range []float64{1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push at %g with clock 3 did not panic", at)
				}
			}()
			e.push(event{at: at})
		}()
	}
	if len(e.events) != 0 {
		t.Fatalf("%d rejected events were queued", len(e.events))
	}
}

// TestHeapPopOrderMatchesSort is a property test: whatever the push order,
// the heap pops exactly the (at, seq) order sort.Slice gives, so the clock
// never decreases and ties fire in push order.
func TestHeapPopOrderMatchesSort(t *testing.T) {
	f := func(raw []uint16) bool {
		var e engine
		want := make([]event, 0, len(raw))
		for i, r := range raw {
			ev := event{at: float64(r % 1000), s: i}
			e.push(ev)
			ev.seq = uint64(i)
			want = append(want, ev)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
		got := drain(&e)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
