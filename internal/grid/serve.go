package grid

import (
	"fmt"
	"net"
	"time"

	"oagrid/internal/diet"
)

// frameTimeout bounds one decode or encode on a scheduler connection.
const frameTimeout = 5 * time.Second

// acceptLoop serves connections until the listener closes. The scheduler
// brings its own loop (instead of diet.Serve) because submit-wait
// connections stream multiple response frames.
func (s *Scheduler) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

// sender writes the response frames of one request on a served connection,
// stamped with the version the connection negotiated.
type sender struct {
	conn net.Conn // counted (diet.CountConn)
	ver  int
	// keep marks a request whose sender asked for keep-alive and may have
	// it: its last frame echoes the bit and the connection reads another
	// request. kept records that the last frame went out so.
	keep, kept bool
}

// send writes the exchange's last frame: the one answer of a single-answer
// request, or a stream's result. Only a frame written whole keeps the
// connection.
func (b *sender) send(resp *diet.Response) error {
	err := b.write(resp, b.keep)
	b.kept = b.keep && err == nil
	return err
}

// open writes a stream's verdict: more frames follow, so it never carries
// the keep-alive bit.
func (b *sender) open(resp *diet.Response) error { return b.write(resp, false) }

func (b *sender) write(resp *diet.Response, keep bool) error {
	resp.Version, resp.KeepAlive = b.ver, keep
	_ = b.conn.SetDeadline(time.Now().Add(frameTimeout))
	return diet.WriteResponseFrame(b.conn, resp)
}

// sendProgress writes a published frame's cached encoding, at the
// connection's version, instead of re-encoding it per subscriber.
func (b *sender) sendProgress(f *progressFrame) error {
	enc, err := f.encoded(b.ver)
	if err != nil {
		return err
	}
	_ = b.conn.SetDeadline(time.Now().Add(frameTimeout))
	return diet.WriteRawFrame(b.conn, enc)
}

// serveConn serves the request a connection opens with, and — for a peer
// that asked to keep the connection (a SeD's heartbeats, a ring member's
// pings, pulls and local stats and lists, a client's control requests and
// campaign streams) — the requests that follow it. A stream is kept only
// past its result frame. Peers below the protocol floor — no frame magic, or
// a version under diet.ProtocolFloor — are refused by AcceptRequest.
func (s *Scheduler) serveConn(conn net.Conn) {
	s.srv.ServeConn(conn, func(w net.Conn, req *diet.Request, ver int) bool {
		send := &sender{conn: w, ver: ver, keep: req.KeepAlive}
		s.dispatch(send, req)
		return send.kept
	})
}

// dispatch routes one decoded request to the streaming or one-shot path.
// The ring kinds come first — they are daemon-to-daemon and never route —
// then ring ownership gets a chance to redirect or fan the request out
// before the local paths serve it.
func (s *Scheduler) dispatch(send *sender, req *diet.Request) {
	switch req.Kind {
	case diet.KindRingPing:
		// Every daemon answers: liveness needs no ring state on the
		// responder.
		_ = send.send(&diet.Response{Ring: &diet.RingPingResponse{}})
		return
	case diet.KindSegment:
		_ = send.send(s.serveSegment(req.Segment))
		return
	}
	if sm := s.shardManager(); sm != nil && s.routeRing(sm, send, req) {
		return
	}
	switch req.Kind {
	case diet.KindSubmit:
		s.serveSubmit(send, req.Submit)
	case diet.KindAttach:
		s.serveAttach(send, req.Attach)
	default:
		resp := s.handle(req)
		_ = send.send(resp)
	}
}

// serveSubmit answers a campaign submission. With Wait set the connection
// streams: the admission verdict goes out immediately; with Progress set,
// per-campaign progress frames follow; the campaign result
// closes the stream when the run completes. Every frame write refreshes the
// connection deadline, so a stream stays alive exactly as long as its
// campaign — and a client gone mid-stream fails a frame write, which
// releases this goroutine without touching the dispatcher that runs the
// campaign. A submission whose key was admitted before is answered with
// that campaign (see admit): its ID in an accepted verdict, then its
// history and live stream, as serveAttach would.
func (s *Scheduler) serveSubmit(send *sender, req *diet.SubmitRequest) {
	if req == nil {
		_ = send.send(&diet.Response{Err: "submit: empty payload"})
		return
	}
	c, verdict, err := s.admit(req)
	if err != nil {
		// Malformed campaign: a protocol error, not an admission verdict —
		// retrying it can never succeed.
		_ = send.send(&diet.Response{Err: err.Error()})
		return
	}
	if c == nil || !req.Wait {
		_ = send.send(&diet.Response{Submit: verdict})
		return
	}
	// Subscribe before acknowledging admission: the dispatcher may pop the
	// campaign immediately, and a subscription taken later would race the
	// first planned frame (the history replay makes even that race benign,
	// but late frames would reorder around the verdict).
	var sub chan *progressFrame
	if req.Progress {
		sub = c.subscribe()
		defer c.unsubscribe(sub)
	}
	if err := send.open(&diet.Response{Submit: verdict}); err != nil {
		return
	}
	s.streamCampaign(send, c, sub)
}

// serveAttach reconnects a client to a campaign by ID: the attach verdict
// goes out first, then — with Progress set — the campaign's full replayed
// history followed by live frames, and finally the result.
// Attaching to a finished campaign replays its history and closes with the
// stored result immediately.
func (s *Scheduler) serveAttach(send *sender, req *diet.AttachRequest) {
	if req == nil {
		_ = send.send(&diet.Response{Err: "attach: empty payload"})
		return
	}
	c := s.lookup(req.ID)
	if c == nil {
		_ = send.send(&diet.Response{Attach: &diet.AttachResponse{ID: req.ID}})
		return
	}
	// Subscribe before acknowledging, for the same reason serveSubmit does:
	// the replay inside subscribe() pins the history point the live stream
	// continues from.
	var sub chan *progressFrame
	if req.Progress {
		sub = c.subscribe()
		defer c.unsubscribe(sub)
	}
	snap := c.snapshot()
	if err := send.open(&diet.Response{Attach: &diet.AttachResponse{
		ID:     c.id,
		Found:  true,
		Status: snap.Status,
		Done:   snap.Done,
		Total:  snap.Total,
	}}); err != nil {
		return
	}
	s.streamCampaign(send, c, sub)
}

// streamCampaign pumps a campaign's progress frames into send until the
// campaign ends, then closes the stream with the result. sub may be nil
// (a wait without progress): the loop then only waits for completion. Once
// the scheduler is shutting down, a stream's last frame is the shutdown
// error, even when the campaign finished meanwhile — a race whose outcome
// would otherwise be the select's coin flip; the client reattaches for the
// result, which the journal keeps.
func (s *Scheduler) streamCampaign(send *sender, c *campaign, sub chan *progressFrame) {
	shutdown := func() {
		send.keep = false // the stream ends without its result: close
		_ = send.send(&diet.Response{Err: shutdownMsg})
	}
	for {
		select {
		case f := <-sub: // nil sub: never ready, plain wait
			if err := send.sendProgress(f); err != nil {
				return
			}
		case <-c.done:
			// Drain progress frames published before completion so the
			// stream is gapless (this is sub's only receiver, so len is a
			// safe bound), then close with the result.
			for len(sub) > 0 {
				if err := send.sendProgress(<-sub); err != nil {
					return
				}
			}
			select {
			case <-s.done:
				shutdown()
			default:
				_ = send.send(&diet.Response{Result: c.snapshot()})
			}
			return
		case <-s.done:
			shutdown()
			return
		}
	}
}

// handle serves the one-shot request kinds.
func (s *Scheduler) handle(req *diet.Request) *diet.Response {
	switch req.Kind {
	case diet.KindHeartbeat:
		if req.Heartbeat == nil {
			return &diet.Response{Err: "heartbeat: empty payload"}
		}
		hb := req.Heartbeat
		s.register(diet.SeDInfo{Cluster: hb.Cluster, Addr: hb.Addr, Procs: hb.Procs}, hb.InFlight, hb.Speed, hb.Draining)
		return &diet.Response{Heartbeat: &diet.HeartbeatResponse{}}
	case diet.KindStats:
		stats := s.Stats()
		return &diet.Response{Stats: &stats}
	case diet.KindCancel:
		if req.Cancel == nil {
			return &diet.Response{Err: "cancel: empty payload"}
		}
		found, status := s.Cancel(req.Cancel.ID)
		return &diet.Response{Cancel: &diet.CancelResponse{ID: req.Cancel.ID, Found: found, Status: status}}
	case diet.KindInfo:
		if req.Info == nil {
			return &diet.Response{Err: "info: empty payload"}
		}
		return &diet.Response{Info: s.CampaignInfo(req.Info.ID)}
	case diet.KindListCampaigns:
		if req.ListCampaigns == nil {
			return &diet.Response{Err: "list-campaigns: empty payload"}
		}
		return &diet.Response{ListCampaigns: &diet.ListCampaignsResponse{Campaigns: s.ListCampaigns(req.ListCampaigns)}}
	default:
		return &diet.Response{Err: fmt.Sprintf("grid: scheduler: unsupported request %q", req.Kind)}
	}
}
