package ring

import (
	"errors"
	"testing"
	"time"
)

func mustRing(t *testing.T, self string, members []string) *Ring {
	t.Helper()
	r, err := New(self, members)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New("c", []string{"a", "b"}); !errors.Is(err, ErrNotMember) {
		t.Fatalf("self outside the member list: %v", err)
	}
	if _, err := New("a", []string{"a", "a"}); err == nil {
		t.Fatal("a one-member ring (after dedup) was accepted")
	}
	r := mustRing(t, "a", []string{"b", "a", "b", ""})
	if got := r.Members(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("members %v, want deduped sorted [a b]", got)
	}
	if got := r.Peers(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("peers %v, want [b]", got)
	}
}

// TestOwnershipDeterministic pins the property forwarding correctness
// rests on: every shard, whatever the order its member list was written
// in, computes the same home and the same failover owner for every ID.
func TestOwnershipDeterministic(t *testing.T) {
	members := []string{"h1:1", "h2:2", "h3:3"}
	a := mustRing(t, "h1:1", members)
	b := mustRing(t, "h2:2", []string{"h3:3", "h1:1", "h2:2"})
	dead := "h2:2"
	alive := func(m string) bool { return m != dead }
	for id := uint64(1); id <= 2000; id++ {
		if ha, hb := a.Home(id), b.Home(id); ha != hb {
			t.Fatalf("id %d: homes diverge (%s vs %s)", id, ha, hb)
		}
		oa, ob := a.Owner(id, alive), b.Owner(id, alive)
		if oa != ob {
			t.Fatalf("id %d: failover owners diverge (%s vs %s)", id, oa, ob)
		}
		if oa == dead {
			t.Fatalf("id %d: owner is the dead member", id)
		}
		if home := a.Home(id); home != dead && oa != home {
			t.Fatalf("id %d: home %s alive but owner is %s", id, home, oa)
		}
	}
}

// TestOwnershipSpread demands the consistent hash actually spreads: over a
// large ID range every member of a 3-ring owns a meaningful share.
func TestOwnershipSpread(t *testing.T) {
	members := []string{"h1:1", "h2:2", "h3:3"}
	r := mustRing(t, "h1:1", members)
	counts := make(map[string]int)
	const n = 9000
	for id := uint64(1); id <= n; id++ {
		counts[r.Home(id)]++
	}
	for _, m := range members {
		if counts[m] < n/10 {
			t.Fatalf("member %s owns only %d of %d IDs", m, counts[m], n)
		}
	}
}

func TestMembersLiveness(t *testing.T) {
	r := mustRing(t, "a", []string{"a", "b", "c"})
	m := NewMembers(r, 50*time.Millisecond)

	if !m.Alive("a") {
		t.Fatal("self must always be alive")
	}
	if m.Alive("b") || m.Alive("z") {
		t.Fatal("unpinged and unknown peers must not be alive")
	}

	m.ObservePing("b", true)
	if !m.Alive("b") {
		t.Fatal("peer with a fresh answered ping must be alive")
	}
	// A ping without an answer keeps the last state; the deadline kills it.
	m.ObservePing("b", false)
	if !m.Alive("b") {
		t.Fatal("one failed ping inside the deadline must not kill the peer")
	}
	time.Sleep(60 * time.Millisecond)
	if m.Alive("b") {
		t.Fatal("peer past the deadline must be dead")
	}
	// A peer whose answers never decode (one below the protocol floor) is
	// never alive; one that answers is.
	m.ObservePing("c", false)
	if m.Alive("c") {
		t.Fatal("a peer that never answered must not be alive")
	}
	m.ObservePing("c", true)
	m.ObservePing("z", true)

	snap := m.Snapshot()
	if len(snap) != 2 || snap[0] != (PeerStatus{Addr: "b"}) || snap[1] != (PeerStatus{Addr: "c", Alive: true}) {
		t.Fatalf("snapshot %+v, want [b dead, c alive], unknown z ignored", snap)
	}
}
