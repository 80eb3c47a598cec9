package grid

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
)

// Typed failure taxonomy of the campaign client. The oagrid facade re-exports
// these, so importers can errors.Is against them instead of string-matching
// messages from a package they cannot import.
var (
	// ErrRejected reports an admission-control rejection: the daemon's bounded
	// queue was full. Callers may back off and retry.
	ErrRejected = errors.New("grid: campaign rejected")
	// ErrQuotaExceeded reports an admission rejected because the submitting
	// tenant's own queue quota was exhausted — other tenants keep admitting.
	// It wraps ErrRejected (quota rejections are retryable and existing
	// errors.Is(err, ErrRejected) backoff loops keep working), but retrying
	// helps only once the tenant's earlier campaigns drain.
	ErrQuotaExceeded = fmt.Errorf("%w: tenant quota exceeded", ErrRejected)
	// ErrCampaignFailed reports a campaign the daemon accepted but could not
	// drive to completion (timeout, shutdown, no live SeD, ...). The daemon's
	// reason is in the wrapping error's message.
	ErrCampaignFailed = errors.New("grid: campaign failed")
	// ErrProtocol reports a wire-level violation: a missing or malformed
	// frame, or a remote speaking an incompatible protocol. Retrying the same
	// exchange cannot succeed.
	ErrProtocol = errors.New("grid: protocol error")
	// ErrUnknownCampaign reports an attach to a campaign ID the daemon does
	// not know: never admitted, or pruned past the retention cap. Resubmit
	// instead of retrying the attach.
	ErrUnknownCampaign = errors.New("grid: unknown campaign")
	// ErrCampaignCancelled reports a campaign terminated by a server-side
	// cancel (control plane v2). Waiting on it — or attaching to it, even
	// after a daemon restart — resolves with this error; the cancellation is
	// final, so resubmit if the work is still wanted.
	ErrCampaignCancelled = errors.New("grid: campaign cancelled")
	// ErrUnreachable reports an exchange no ring member answered: every
	// candidate was down or unreachable at the transport level. The daemons
	// themselves may be healthy behind a partition — back off and retry.
	ErrUnreachable = errors.New("grid: no scheduler reachable")
)

// Client submits campaigns to a scheduler daemon — or to a ring of them:
// with Addrs set, every exchange can fall back to the other members when the
// primary is unreachable, and ownership redirects are followed and cached
// so steady-state traffic goes straight to the owning shard.
type Client struct {
	// Addr is the scheduler's address — the primary ring member when Addrs
	// is also set. It doubles as the route-cache seed: redirects learned
	// through this client are remembered per (Addr, campaign ID).
	Addr string
	// Addrs lists further ring members to try when Addr (or a cached route)
	// is unreachable. Order is the fallback order; Addr is always tried
	// before them. Empty for a single-daemon deployment.
	Addrs []string
	// Timeout bounds one protocol frame: the dial, the submit write, and each
	// received frame (verdict, progress, result) gets this long. The deadline
	// is refreshed on every frame, so a streamed campaign may run arbitrarily
	// long as a whole — it dies only when the daemon goes silent for Timeout
	// (default 2m, matching the daemon's campaign timeout).
	Timeout time.Duration

	// The client's kept-alive transport and its submission-key minter, built
	// on first use (see build), so the zero value is ready to use.
	mu        sync.Mutex
	tr        *diet.Transport
	keyPrefix [8]byte
	keySeq    uint64
}

// clientIdlePerPeer bounds the idle connections a client keeps to one
// member: enough for the campaigns and control requests a busy client has
// in flight at once, so a burst does not redial in steady state.
const clientIdlePerPeer = 8

// transport returns the client's kept-alive transport, building it on first
// use.
func (c *Client) transport() *diet.Transport {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.build()
	return c.tr
}

// build builds the transport and draws the key prefix. Callers hold c.mu.
func (c *Client) build() {
	if c.tr == nil {
		c.tr = diet.NewTransport(clientIdlePerPeer)
		_, _ = rand.Read(c.keyPrefix[:]) // never fails (crypto/rand)
	}
}

// mintKey returns a submission key no other submit of this client — or,
// but for a 64-bit prefix collision, of any client — carries: the client's
// random prefix and a counter, so minting costs no syscall.
func (c *Client) mintKey() diet.SubmitKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.build()
	c.keySeq++
	var k diet.SubmitKey
	copy(k[:8], c.keyPrefix[:])
	binary.LittleEndian.PutUint64(k[8:], c.keySeq)
	return k
}

// Close releases the connections the client keeps idle. Exchanges still in
// flight finish on their own connections; a closed client stays usable, one
// connection per exchange.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tr != nil {
		c.tr.Close()
	}
	return nil
}

// ---- ring routing ----------------------------------------------------------

// routeKey scopes a learned campaign route to the client seed that learned
// it, so two clients pointed at unrelated rings never cross-pollute.
type routeKey struct {
	seed string
	id   uint64
}

// maxRingRoutes bounds the learned-route cache: routes are an optimization,
// not state — an evicted victim's next exchange just eats one extra redirect
// hop.
const maxRingRoutes = 4096

var (
	ringRoutesMu sync.Mutex
	ringRoutes   = make(map[routeKey]string)
)

// learnRoute remembers which shard owns a campaign. A new route arriving at
// the cap evicts an arbitrary existing entry first.
func learnRoute(seed string, id uint64, owner string) {
	if id == 0 || owner == "" || owner == seed {
		return
	}
	ringRoutesMu.Lock()
	defer ringRoutesMu.Unlock()
	k := routeKey{seed: seed, id: id}
	if _, known := ringRoutes[k]; !known && len(ringRoutes) >= maxRingRoutes {
		for victim := range ringRoutes {
			if victim != k {
				delete(ringRoutes, victim)
				break
			}
		}
	}
	ringRoutes[k] = owner
}

// routeFor returns the cached owner for a campaign ("" when unknown).
func routeFor(seed string, id uint64) string {
	ringRoutesMu.Lock()
	defer ringRoutesMu.Unlock()
	return ringRoutes[routeKey{seed: seed, id: id}]
}

// forgetRoute drops a cached route — called when its shard stopped
// answering, so failover rediscovery starts from the surviving members.
func forgetRoute(seed string, id uint64) {
	ringRoutesMu.Lock()
	defer ringRoutesMu.Unlock()
	delete(ringRoutes, routeKey{seed: seed, id: id})
}

// ringRouteCacheLen reports the route cache's current size (tests).
func ringRouteCacheLen() int {
	ringRoutesMu.Lock()
	defer ringRoutesMu.Unlock()
	return len(ringRoutes)
}

// candidates is the address order one exchange walks: the learned route for
// the campaign first (steady-state traffic goes direct), then Addr, then the
// Addrs fallbacks, deduplicated.
func (c *Client) candidates(id uint64) []string {
	out := make([]string, 0, len(c.Addrs)+2)
	seen := make(map[string]bool, len(c.Addrs)+2)
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	if id != 0 {
		add(routeFor(c.Addr, id))
	}
	add(c.Addr)
	for _, a := range c.Addrs {
		add(a)
	}
	return out
}

// maxRedirectHops bounds how many ownership redirects one exchange follows
// before moving to the next candidate — enough for a route to settle during
// failover, small enough that a confused ring cannot bounce a client
// forever.
const maxRedirectHops = 3

// walk is the client's one ring walk: every exchange reaches the members
// through it. It walks candidates(id), calls try on each, follows up to
// maxRedirectHops ownership redirects per candidate (learning each), and
// learns the member that served a successful exchange. It rotates to the
// next member only while try reports the member did not answer — a shard
// that answered, even with an error, will not answer differently elsewhere
// — and wraps exhaustion in ErrUnreachable. try returns the member's
// redirect ("" for none), whether the member answered, and its error.
func (c *Client) walk(ctx context.Context, id uint64, kind string, try func(addr string) (redirect string, answered bool, err error)) error {
	var lastErr error
	for _, addr := range c.candidates(id) {
		target := addr
		for hop := 0; hop <= maxRedirectHops; hop++ {
			redirect, answered, err := try(target)
			if redirect != "" && redirect != target {
				learnRoute(c.Addr, id, redirect)
				target = redirect
				continue
			}
			if err == nil {
				learnRoute(c.Addr, id, target)
				return nil
			}
			if answered || ctx.Err() != nil {
				return err
			}
			forgetRoute(c.Addr, id)
			lastErr = err
			break // member unreachable: rotate
		}
	}
	if lastErr == nil {
		return fmt.Errorf("%w: no member answered %s for campaign %d", ErrUnreachable, kind, id)
	}
	return fmt.Errorf("%w: %s for campaign %d: %w", ErrUnreachable, kind, id, lastErr)
}

// ringRoundTrip sends a single-answer request through walk, on the client's
// kept-alive transport: a transport failure rotates, an answered error
// (*diet.RemoteError) ends the walk. It returns the response and the address
// that served it; both are meaningless when the error is not nil.
func (c *Client) ringRoundTrip(ctx context.Context, id uint64, req *diet.Request) (*diet.Response, string, error) {
	tr := c.transport()
	var resp *diet.Response
	servedBy := ""
	err := c.walk(ctx, id, req.Kind, func(addr string) (string, bool, error) {
		r, err := tr.RoundTrip(ctx, addr, req, c.timeout())
		if err != nil {
			var remote *diet.RemoteError
			if errors.As(err, &remote) {
				return "", true, err
			}
			return "", false, wireError(addr, err)
		}
		resp, servedBy = r, addr
		if r.Redirect != nil {
			return r.Redirect.Owner, true, nil
		}
		return "", true, nil
	})
	return resp, servedBy, err
}

// wireError types a failed exchange: an answer that is not a well-formed
// frame (no frame magic, a version below the floor, a corrupt payload) is a
// protocol violation; anything else stays the transport's own error.
func wireError(addr string, err error) error {
	if errors.Is(err, diet.ErrBadFrame) || errors.Is(err, diet.ErrFrameTooLarge) {
		return fmt.Errorf("%w: %s: %w", ErrProtocol, addr, err)
	}
	return err
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 2 * time.Minute
}

// SubmitMeta is the per-campaign option set of the control plane: priority
// orders the daemon's admission queue, labels tag the campaign for
// List filters, and a non-zero deadline overrides the daemon's per-campaign
// timeout. The zero value is a plain submission.
type SubmitMeta struct {
	Priority int
	Labels   map[string]string
	Deadline time.Duration
}

// openStream sends a streaming request (submit-wait or attach) to one member
// on the client's transport and reads the verdict frame. Both ride a
// kept-alive connection (the submit is always keyed), which is pooled again
// after the result frame.
func (c *Client) openStream(ctx context.Context, addr string, req *diet.Request) (*diet.Stream, *diet.Response, error) {
	st, verdict, err := c.transport().OpenStream(ctx, addr, req, c.timeout())
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, wireError(addr, err)
	}
	return st, verdict, nil
}

// nextFrame reads a stream's next frame; see diet.Stream.Next for how the
// per-frame deadline and ctx interact.
func nextFrame(st *diet.Stream) (*diet.Response, error) {
	resp, err := st.Next()
	if err != nil && resp == nil {
		return nil, wireError(st.Addr(), err)
	}
	return resp, err
}

// streamResult consumes a verdict-acknowledged campaign stream to its end:
// progress frames go to onProgress, the result frame closes the exchange.
func streamResult(st *diet.Stream, id uint64, onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error) {
	for {
		frame, err := nextFrame(st)
		if err != nil {
			return nil, fmt.Errorf("grid: waiting for campaign %d result: %w", id, err)
		}
		switch {
		case frame.Err != "":
			return nil, fmt.Errorf("%w: campaign %d: remote error: %s", ErrCampaignFailed, id, frame.Err)
		case frame.Progress != nil:
			if onProgress != nil {
				onProgress(frame.Progress)
			}
		case frame.Result != nil:
			return frame.Result, resultErr(frame.Result)
		default:
			return nil, fmt.Errorf("%w: %s sent an empty frame for campaign %d", ErrProtocol, st.Addr(), id)
		}
	}
}

// RunContext submits a campaign and streams on one connection until the
// result arrives. meta carries the per-campaign submit options. The
// admission verdict's campaign ID is
// delivered to onAdmit when non-nil — hold on to it: it is the handle for
// polling, for Attach after a cut, and for CancelContext. Progress frames
// are delivered to onProgress when non-nil; they double as
// liveness, refreshing the frame deadline. A full queue returns an error
// wrapping ErrRejected; a campaign the daemon reports as failed returns its
// snapshot and an error wrapping ErrCampaignFailed; one cancelled
// server-side resolves with ErrCampaignCancelled. Cancelling ctx abandons
// only the stream — the daemon notices on its next frame write and releases
// the connection, while the campaign itself keeps running server-side to
// its own deadline (CancelContext is the way to stop the work itself).
func (c *Client) RunContext(ctx context.Context, app core.Application, heuristic string, meta SubmitMeta, onAdmit func(uint64), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error) {
	req := &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindSubmit, Submit: &diet.SubmitRequest{
		Scenarios: app.Scenarios,
		Months:    app.Months,
		Heuristic: heuristic,
		Wait:      true,
		Progress:  true,
		Priority:  meta.Priority,
		Labels:    meta.Labels,
		Deadline:  meta.Deadline,
		Key:       c.mintKey(),
	}}
	// Any ring member admits a submission (ownership is decided at ID
	// allocation, on the daemon), so the walk rotates only when the dial
	// itself fails — once the request is on the wire it may have been
	// admitted, and it is never replayed elsewhere. Its key makes the one
	// resend the transport may make, to the same member, safe.
	var st *diet.Stream
	var verdict *diet.Response
	addr := ""
	err := c.walk(ctx, 0, diet.KindSubmit, func(a string) (string, bool, error) {
		var err error
		st, verdict, err = c.openStream(ctx, a, req)
		addr = a
		return "", err == nil || !diet.Unsent(err), err
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	if verdict.Err != "" {
		return nil, fmt.Errorf("%w: submit to %s: remote error: %s", ErrProtocol, addr, verdict.Err)
	}
	if verdict.Submit == nil {
		return nil, fmt.Errorf("%w: %s sent no admission verdict", ErrProtocol, addr)
	}
	if !verdict.Submit.Accepted {
		return nil, rejectionError(verdict.Submit)
	}
	// The admitting member owns the campaign: remember it so a later Attach
	// or poll through this client goes straight there.
	learnRoute(c.Addr, verdict.Submit.ID, addr)
	if onAdmit != nil {
		onAdmit(verdict.Submit.ID)
	}
	return streamResult(st, verdict.Submit.ID, onProgress)
}

// AttachContext reconnects to a previously admitted campaign by ID — after
// a network cut, a client restart, or a daemon restart that replayed its
// journal — and streams to the result exactly like RunContext, starting
// with the campaign's full replayed progress history. The attach verdict is
// delivered to onAttach when non-nil. An ID the daemon does not know
// returns an error wrapping ErrUnknownCampaign.
func (c *Client) AttachContext(ctx context.Context, id uint64, onAttach func(*diet.AttachResponse), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error) {
	var res *diet.CampaignResult
	err := c.walk(ctx, id, diet.KindAttach, func(addr string) (redirect string, reachable bool, err error) {
		res, redirect, reachable, err = c.attachAt(ctx, addr, id, onAttach, onProgress)
		return redirect, reachable, err
	})
	return res, err
}

// attachAt runs one attach exchange against one member. reachable reports
// whether the member answered the verdict frame — false means the dial or
// the verdict itself failed and the caller may rotate to another member
// (attach is idempotent); a non-empty redirect is the member's ownership
// answer and the caller should retry there.
func (c *Client) attachAt(ctx context.Context, addr string, id uint64, onAttach func(*diet.AttachResponse), onProgress func(*diet.ProgressUpdate)) (res *diet.CampaignResult, redirect string, reachable bool, err error) {
	st, verdict, err := c.openStream(ctx, addr, &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindAttach, Attach: &diet.AttachRequest{
		ID:       id,
		Progress: true,
	}})
	if err != nil {
		return nil, "", false, fmt.Errorf("grid: attach verdict from %s: %w", addr, err)
	}
	defer st.Close()

	if verdict.Redirect != nil && verdict.Redirect.Owner != "" {
		return nil, verdict.Redirect.Owner, true, nil
	}
	if verdict.Err != "" {
		return nil, "", true, fmt.Errorf("%w: attach to %s: remote error: %s", ErrProtocol, addr, verdict.Err)
	}
	if verdict.Attach == nil {
		return nil, "", true, fmt.Errorf("%w: %s sent no attach verdict", ErrProtocol, addr)
	}
	if !verdict.Attach.Found {
		return nil, "", true, fmt.Errorf("%w: %d at %s", ErrUnknownCampaign, id, addr)
	}
	if onAttach != nil {
		onAttach(verdict.Attach)
	}
	res, err = streamResult(st, id, onProgress)
	return res, "", true, err
}

// rejectionError maps an admission rejection to its typed sentinel: the
// quota code gets ErrQuotaExceeded (which itself wraps ErrRejected), every
// other rejection — including a pre-quota daemon's codeless one — the plain
// queue-full ErrRejected.
func rejectionError(v *diet.SubmitResponse) error {
	if v.Code == diet.RejectQuota {
		return fmt.Errorf("%w: %s (queue depth %d)", ErrQuotaExceeded, v.Reason, v.QueueDepth)
	}
	return fmt.Errorf("%w: %s (queue depth %d)", ErrRejected, v.Reason, v.QueueDepth)
}

// StatsContext fetches the daemon's gauges.
func (c *Client) StatsContext(ctx context.Context) (*diet.StatsResponse, error) {
	resp, servedBy, err := c.ringRoundTrip(ctx, 0, &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindStats, Stats: &diet.StatsRequest{}})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("%w: %s sent no stats", ErrProtocol, servedBy)
	}
	return resp.Stats, nil
}

// CancelContext asks the daemon to cancel a campaign by ID and returns the
// campaign's status after the verdict. The daemon journals the cancellation
// before answering, so a returned CampaignCancelled survives any restart.
// An unknown ID returns an error wrapping ErrUnknownCampaign; a campaign
// that reached done/failed first returns that status with a nil error —
// cancelling a finished campaign is a no-op, not a failure.
func (c *Client) CancelContext(ctx context.Context, id uint64) (string, error) {
	resp, servedBy, err := c.ringRoundTrip(ctx, id, &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindCancel, Cancel: &diet.CancelRequest{ID: id}})
	if err != nil {
		return "", err
	}
	if resp.Cancel == nil {
		return "", fmt.Errorf("%w: %s sent no cancel verdict for campaign %d", ErrProtocol, servedBy, id)
	}
	if !resp.Cancel.Found {
		return "", fmt.Errorf("%w: %d at %s", ErrUnknownCampaign, id, servedBy)
	}
	return resp.Cancel.Status, nil
}

// InfoContext fetches one campaign's control-plane snapshot. An unknown ID
// returns an error wrapping ErrUnknownCampaign.
func (c *Client) InfoContext(ctx context.Context, id uint64) (*diet.CampaignInfo, error) {
	resp, servedBy, err := c.ringRoundTrip(ctx, id, &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindInfo, Info: &diet.InfoRequest{ID: id}})
	if err != nil {
		return nil, err
	}
	if resp.Info == nil {
		return nil, fmt.Errorf("%w: %s sent no info for campaign %d", ErrProtocol, servedBy, id)
	}
	if !resp.Info.Found {
		return nil, fmt.Errorf("%w: %d at %s", ErrUnknownCampaign, id, servedBy)
	}
	return resp.Info, nil
}

// ListCampaignsContext enumerates the daemon's campaign table in admission
// order, filtered by the request's status and label subset when set (a nil
// filter lists everything).
func (c *Client) ListCampaignsContext(ctx context.Context, filter *diet.ListCampaignsRequest) ([]diet.CampaignInfo, error) {
	if filter == nil {
		filter = &diet.ListCampaignsRequest{}
	}
	resp, servedBy, err := c.ringRoundTrip(ctx, 0, &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindListCampaigns, ListCampaigns: filter})
	if err != nil {
		return nil, err
	}
	if resp.ListCampaigns == nil {
		return nil, fmt.Errorf("%w: %s sent no campaign list", ErrProtocol, servedBy)
	}
	return resp.ListCampaigns.Campaigns, nil
}
