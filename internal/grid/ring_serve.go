package grid

import (
	"sort"

	"oagrid/internal/diet"
)

// ---- ring request serving --------------------------------------------------
//
// The wire side of the scheduler ring: the WAL segment pull a peer tails,
// and the ownership routing that decides, per client request, whether this
// shard serves it, redirects the client to the owner, or fans it out.

// serveSegment ships acknowledged journal bytes to a ring peer tailing this
// shard's WAL for failover replay.
func (s *Scheduler) serveSegment(req *diet.SegmentRequest) *diet.Response {
	if req == nil {
		return &diet.Response{Err: "ring-segment: empty payload"}
	}
	if s.store == nil {
		return &diet.Response{Err: "grid: no journal to ship (daemon has no StateDir)"}
	}
	seg, err := s.store.ReadSegment(req.Generation, req.Offset)
	if err != nil {
		return &diet.Response{Err: err.Error()}
	}
	return &diet.Response{Segment: &diet.SegmentResponse{
		Generation: seg.Generation,
		Offset:     seg.Offset,
		Data:       seg.Data,
		Reset:      seg.Reset,
	}}
}

// ringCampaignID extracts the campaign ID a request is about, for the kinds
// the ring routes by ownership. Submit is deliberately absent: submissions
// are always admitted by the shard that received them (the allocator mints
// only self-homed IDs, so local admission never collides), and List/Stats
// fan out instead of routing.
func ringCampaignID(req *diet.Request) (uint64, bool) {
	switch req.Kind {
	case diet.KindCancel:
		if req.Cancel != nil {
			return req.Cancel.ID, true
		}
	case diet.KindInfo:
		if req.Info != nil {
			return req.Info.ID, true
		}
	case diet.KindAttach:
		if req.Attach != nil {
			return req.Attach.ID, true
		}
	}
	return 0, false
}

// routeRing applies ring ownership to one client request. It reports true
// when the request was fully answered here (fanned out or redirected); false
// means the caller should serve it locally — either this shard owns the
// campaign, already holds it (adopted from a dead peer), the request is a
// peer's Local stats or list, or the kind does not route. A Local request is
// never fanned out again, so a stale ownership view cannot loop it around
// the ring.
func (s *Scheduler) routeRing(sm *shardManager, send *sender, req *diet.Request) bool {
	switch {
	case req.Kind == diet.KindStats && req.Stats != nil && req.Stats.Local,
		req.Kind == diet.KindListCampaigns && req.ListCampaigns != nil && req.ListCampaigns.Local:
		sm.served.Add(1)
		return false
	case req.Kind == diet.KindStats:
		_ = send.send(s.fanoutStats(sm))
		return true
	case req.Kind == diet.KindListCampaigns:
		_ = send.send(s.fanoutList(sm, req.ListCampaigns))
		return true
	}
	id, ok := ringCampaignID(req)
	if !ok || id == 0 {
		return false
	}
	owner := sm.owner(id)
	if owner == sm.ring.Self() || s.lookup(id) != nil {
		return false
	}
	// Tell the client which shard owns the campaign and let it retry
	// direct; its route cache makes the detour one-time.
	sm.redirected.Add(1)
	_ = send.send(&diet.Response{Redirect: &diet.RedirectInfo{ID: id, Owner: owner}})
	return true
}

// fanoutStats merges this shard's gauges with every alive peer's into one
// ring-wide snapshot: counters sum, the queue high-water mark and the oldest
// queue wait take the max, SeD tables concatenate, and tenants merge by
// name. A peer that fails the exchange is simply skipped — a partial
// snapshot from the survivors beats no snapshot.
func (s *Scheduler) fanoutStats(sm *shardManager) *diet.Response {
	sm.fanouts.Add(1)
	total := s.Stats()
	for _, p := range sm.ring.Peers() {
		if !sm.members.Alive(p) {
			continue
		}
		resp, err := sm.call(p, &diet.Request{Kind: diet.KindStats, Stats: &diet.StatsRequest{Local: true}})
		if err != nil || resp.Stats == nil {
			continue
		}
		mergeStats(&total, resp.Stats)
	}
	return &diet.Response{Stats: &total}
}

func mergeStats(dst *diet.StatsResponse, src *diet.StatsResponse) {
	dst.QueueDepth += src.QueueDepth
	if src.MaxQueueDepth > dst.MaxQueueDepth {
		dst.MaxQueueDepth = src.MaxQueueDepth
	}
	dst.Running += src.Running
	dst.Completed += src.Completed
	dst.Failed += src.Failed
	dst.Cancelled += src.Cancelled
	dst.Rejected += src.Rejected
	dst.Requeues += src.Requeues
	dst.Evicted += src.Evicted
	dst.SeDs = append(dst.SeDs, src.SeDs...)
	dst.Tenants = mergeTenants(dst.Tenants, src.Tenants)
	dst.OldestWaitMs = max(dst.OldestWaitMs, src.OldestWaitMs)
}

// mergeTenants folds two per-tenant breakdowns by tenant name: gauges and
// counters sum, the wait maximum takes the max, and the weight — configured
// identically on every shard — keeps whichever side reports the larger.
func mergeTenants(a, b []diet.TenantStatus) []diet.TenantStatus {
	byName := make(map[string]diet.TenantStatus, len(a)+len(b))
	for _, t := range a {
		byName[t.Tenant] = t
	}
	for _, t := range b {
		d, ok := byName[t.Tenant]
		if !ok {
			byName[t.Tenant] = t
			continue
		}
		d.Queued += t.Queued
		d.Running += t.Running
		d.Admitted += t.Admitted
		d.Completed += t.Completed
		d.Failed += t.Failed
		d.Cancelled += t.Cancelled
		d.QuotaRejected += t.QuotaRejected
		d.WaitCount += t.WaitCount
		d.WaitSumMs += t.WaitSumMs
		if t.WaitMaxMs > d.WaitMaxMs {
			d.WaitMaxMs = t.WaitMaxMs
		}
		if t.Weight > d.Weight {
			d.Weight = t.Weight
		}
		byName[t.Tenant] = d
	}
	out := make([]diet.TenantStatus, 0, len(byName))
	for _, t := range byName {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// fanoutList enumerates the ring-wide campaign namespace: the local table
// plus every alive peer's, deduplicated by ID (an adopted campaign can
// briefly exist on two shards) and returned in ascending admission order.
func (s *Scheduler) fanoutList(sm *shardManager, filter *diet.ListCampaignsRequest) *diet.Response {
	if filter == nil {
		return &diet.Response{Err: "list-campaigns: empty payload"}
	}
	sm.fanouts.Add(1)
	all := s.ListCampaigns(filter)
	local := *filter
	local.Local = true
	seen := make(map[uint64]bool, len(all))
	for _, ci := range all {
		seen[ci.ID] = true
	}
	for _, p := range sm.ring.Peers() {
		if !sm.members.Alive(p) {
			continue
		}
		resp, err := sm.call(p, &diet.Request{Kind: diet.KindListCampaigns, ListCampaigns: &local})
		if err != nil || resp.ListCampaigns == nil {
			continue
		}
		for _, ci := range resp.ListCampaigns.Campaigns {
			if !seen[ci.ID] {
				seen[ci.ID] = true
				all = append(all, ci)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return &diet.Response{ListCampaigns: &diet.ListCampaignsResponse{Campaigns: all}}
}
