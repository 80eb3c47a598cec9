// Package ring is the scheduler's horizontal scale-out layer: shard
// membership and campaign routing for N daemons sharing one campaign
// namespace. The paper's deployment is not one master agent but a DIET
// hierarchy spanning several Grid'5000 sites; this package gives the online
// scheduler the same shape — a static ring of peer daemons, campaign
// ownership by consistent hash of the campaign ID, and a liveness view that
// re-routes a dead shard's campaigns to its ring successor.
//
// The package is transport-free by design: it owns the hash ring and the
// membership state machine, while internal/grid drives the wire traffic
// (ring pings, WAL segment pulls, request forwarding) against it. That
// split keeps ownership arithmetic deterministic and unit-testable — every
// shard with the same member list and the same liveness view computes the
// same owner for every campaign, which is what makes forwarding loop-free.
//
// Two ownership views matter and they are deliberately different:
//
//   - Home(id) hashes over the full configured member list, dead or alive.
//     It is the allocation view: a shard only ever mints campaign IDs it is
//     home for, so two shards can never allocate the same ID however their
//     liveness views diverge.
//   - Owner(id, alive) walks the same ring but skips members the alive
//     predicate rejects. It is the routing and failover view: when a shard
//     dies, its campaigns' ownership moves to the next live member on the
//     ring, the shard that tailed (or will replay) its WAL.
package ring

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"
)

// ErrNotMember rejects a ring whose self address is missing from the
// member list — a misconfiguration that would make every ownership check
// disagree with the peers'.
var ErrNotMember = errors.New("ring: self address not in member list")

// vnodesPerMember spreads each member over the hash circle so ownership
// splits roughly evenly and a member's death spreads its load over every
// survivor instead of dumping it on one successor.
const vnodesPerMember = 64

// point is one virtual node on the hash circle.
type point struct {
	h      uint64
	member string
}

// Ring is the immutable hash circle over a configured member list.
type Ring struct {
	self    string
	members []string // sorted, deduped
	points  []point  // sorted by hash
}

// New builds the ring for a configured member list. self must be listed;
// duplicates are folded. Every shard of one ring must be started with the
// same member list (order does not matter).
func New(self string, members []string) (*Ring, error) {
	seen := make(map[string]bool, len(members))
	var uniq []string
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	if !seen[self] {
		return nil, fmt.Errorf("%w: %q not in %v", ErrNotMember, self, members)
	}
	if len(uniq) < 2 {
		return nil, fmt.Errorf("ring: a ring needs at least 2 members, got %v", uniq)
	}
	sort.Strings(uniq)
	r := &Ring{self: self, members: uniq}
	r.points = make([]point, 0, len(uniq)*vnodesPerMember)
	for _, m := range uniq {
		for v := 0; v < vnodesPerMember; v++ {
			r.points = append(r.points, point{h: hashString(m + "#" + strconv.Itoa(v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Self returns this shard's advertised address.
func (r *Ring) Self() string { return r.self }

// Members returns the full configured member list, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Peers returns the members other than self, sorted.
func (r *Ring) Peers() []string {
	out := make([]string, 0, len(r.members)-1)
	for _, m := range r.members {
		if m != r.self {
			out = append(out, m)
		}
	}
	return out
}

// Home returns the campaign's home shard: the owner under the full
// configured member list, dead or alive. Allocation uses this view — a
// shard mints only IDs it is home for — so ID ranges never overlap across
// shards regardless of liveness disagreement.
func (r *Ring) Home(id uint64) string {
	return r.points[r.firstPoint(hashID(id))].member
}

// Owner returns the campaign's owner under the given liveness view: the
// home shard when alive, otherwise the next live member walking the hash
// circle — the shard failover hands the campaign to. alive==nil means
// everyone is alive. When no member is alive the home shard is returned
// (there is nowhere better to point at).
func (r *Ring) Owner(id uint64, alive func(string) bool) string {
	start := r.firstPoint(hashID(id))
	if alive == nil {
		return r.points[start].member
	}
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if alive(p.member) {
			return p.member
		}
	}
	return r.points[start].member
}

// firstPoint locates the first hash point at or clockwise past h.
func (r *Ring) firstPoint(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// hashString places a vnode label on the hash circle: FNV-1a finished
// with mix64. Raw FNV leaves labels sharing a member prefix ("host:port#0"
// … "host:port#63") clustered — the short varying suffix barely disturbs
// the high bits, so each member's vnodes bunch onto one arc and ownership
// splits wildly unevenly; the finalizer avalanches them apart.
func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// hashID maps a campaign ID onto the hash circle. Campaign IDs are small
// sequential integers — near-zero entropy that a byte-stream hash like
// FNV clusters onto a narrow arc — so they go straight through the
// full-avalanche finalizer.
func hashID(id uint64) uint64 {
	return mix64(id)
}

// mix64 is the splitmix64 finalizer: a bijective full-avalanche mix that
// spreads low-entropy 64-bit inputs uniformly.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PeerStatus is one peer's membership view, the shard gauges' shape.
type PeerStatus struct {
	Addr string
	// Alive means the peer answered a ring ping within the deadline.
	Alive bool
}

// Members tracks peer liveness from ring-ping outcomes. A peer is alive
// while its last answered handshake is within deadAfter; a peer whose
// answers never decode (one below the protocol floor) is never alive. Self
// is always alive.
type Members struct {
	self      string
	deadAfter time.Duration

	mu sync.Mutex
	// lastOK is each peer's last answered ping, zero until the first.
	lastOK map[string]time.Time
}

// NewMembers builds the liveness tracker for the ring's peer set.
func NewMembers(r *Ring, deadAfter time.Duration) *Members {
	m := &Members{self: r.Self(), deadAfter: deadAfter, lastOK: make(map[string]time.Time)}
	for _, p := range r.Peers() {
		m.lastOK[p] = time.Time{}
	}
	return m
}

// ObservePing folds one handshake outcome into the liveness view: answered
// refreshes the peer; a ping without a usable answer leaves it to go dead
// when the deadline passes.
func (m *Members) ObservePing(addr string, answered bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.lastOK[addr]; ok && answered {
		m.lastOK[addr] = time.Now()
	}
}

// Alive reports whether addr is a live ring member right now. Self is
// always alive; unknown addresses never are.
func (m *Members) Alive(addr string) bool {
	if addr == m.self {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aliveLocked(addr)
}

func (m *Members) aliveLocked(addr string) bool {
	t := m.lastOK[addr]
	return !t.IsZero() && time.Since(t) <= m.deadAfter
}

// AliveFn returns the liveness predicate Ring.Owner consumes.
func (m *Members) AliveFn() func(string) bool { return m.Alive }

// Snapshot returns every peer's status, sorted by address.
func (m *Members) Snapshot() []PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerStatus, 0, len(m.lastOK))
	for addr := range m.lastOK {
		out = append(out, PeerStatus{Addr: addr, Alive: m.aliveLocked(addr)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
