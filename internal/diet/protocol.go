// Package diet is a loopback reimplementation of the grid middleware layer
// the paper deploys on (DIET): per-cluster server daemons (SeDs) and the
// messages of the six-step protocol of the paper's Figure 9 —
//
//	(1) the client sends the request (NS, NM) to the clusters;
//	(2) each cluster computes its performance vector with the knapsack model;
//	(3) the vectors return to the client;
//	(4) the client computes the scenario repartition (Algorithm 1);
//	(5) the client sends each cluster its share of the simulations;
//	(6) each cluster executes its share.
//
// The scheduler that drives the steps lives in internal/grid. Transport is
// TCP with one codec — length-prefixed binary frames (see binary.go) — on
// connections the daemons keep open between exchanges (see transport.go). The
// original study ran this over Grid'5000; here the "clusters" are simulated
// executors on loopback sockets, which preserves every protocol step and
// message shape.
package diet

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/engine"
)

// Protocol versions. ProtocolFloor is the oldest version this build
// negotiates and ProtocolVersion the newest; both are v9. v9 carries the
// streamed campaign (verdict, progress frames, result on one submit-wait or
// attach connection) under a client-minted submission key
// (SubmitRequest.Key), the control plane (per-campaign submit options,
// cancel, info, list-campaigns), the submit verdict's rejection Code, the
// scheduler-ring kinds, and the elastic-fleet heartbeat fields (Speed,
// Draining). Older versions are retired: a peer that opens a connection with
// anything but the frame magic is closed, and a frame or envelope stamped
// below the floor is answered with one error frame naming the minimum.
//
// Negotiation is min(client, server) above the floor: the client states its
// version in the Request, the server answers every frame with the effective
// version, and features above the effective version stay off the wire. A
// field added in a later version goes at the end of its layout behind
// `if c.ver >= ProtocolVN` (see binary.go), because decoders reject trailing
// payload bytes. The JSON cold-kind envelope has no gates: a field added
// there changes the sealed frames of the versions already spoken, so a cold
// kind gains a field only with a layout of its own.
const (
	ProtocolV9 = 9
	// ProtocolFloor is the oldest version this build negotiates.
	ProtocolFloor = ProtocolV9
	// ProtocolVersion is the highest version this build speaks.
	ProtocolVersion = ProtocolV9
)

// errVersionTooOld is the verdict on a peer below ProtocolFloor. It wraps
// ErrBadFrame: on the wire a sub-floor stamp is a malformed frame.
var errVersionTooOld = fmt.Errorf("%w: protocol version below the v%d minimum", ErrBadFrame, ProtocolFloor)

// NegotiateVersion resolves a connection's effective version: the lower of
// what the peer announced and max, the highest this side speaks. A peer
// below ProtocolFloor is refused with errVersionTooOld — there is no older
// layout to fall back to.
func NegotiateVersion(peer, max int) (int, error) {
	if peer < ProtocolFloor {
		return 0, fmt.Errorf("%w (peer announced v%d)", errVersionTooOld, peer)
	}
	return min(peer, max), nil
}

// Message kinds.
const (
	KindPerf = "perf"
	KindExec = "exec"

	// Online-scheduler kinds (served by internal/grid.Scheduler).
	KindHeartbeat = "heartbeat"
	KindSubmit    = "submit"
	KindStats     = "stats"
	// KindAttach reconnects to a previously admitted campaign by ID and
	// streams like a submit-wait connection: verdict, replayed + live
	// progress frames, final result.
	KindAttach = "attach"

	// Control-plane kinds. KindCancel aborts a campaign by ID server-side;
	// KindInfo fetches one campaign's control-plane snapshot;
	// KindListCampaigns enumerates the scheduler's campaign table with an
	// optional status/label filter.
	KindCancel        = "cancel"
	KindInfo          = "info"
	KindListCampaigns = "list-campaigns"

	// Scheduler-ring kinds. KindRingPing is the ring liveness beacon;
	// KindSegment pulls a peer's campaign-journal bytes for failover replay.
	// A shard tells a client which shard owns a campaign in the answer to
	// the client's own request, as Response.Redirect.
	KindRingPing = "ring-ping"
	KindSegment  = "ring-segment"
)

// Request is the envelope a connection opens with — and, on a kept-alive
// connection (see transport.go), carries again after each single answer.
type Request struct {
	// Version is the protocol version the client speaks (ProtocolFloor or
	// later; RoundTrip fills in this build's newest when left 0).
	Version   int
	Kind      string
	Perf      *PerfRequest
	Exec      *ExecRequest
	Heartbeat *HeartbeatRequest
	Submit    *SubmitRequest
	Stats     *StatsRequest
	Attach    *AttachRequest

	// Control plane.
	Cancel        *CancelRequest
	Info          *InfoRequest
	ListCampaigns *ListCampaignsRequest

	// Scheduler ring.
	Ring    *RingPingRequest `json:",omitempty"`
	Segment *SegmentRequest  `json:",omitempty"`

	// KeepAlive is the frame header's keep-alive flag, not payload: the
	// requester would send its next request on this connection. Transport
	// sets it; callers leave it alone.
	KeepAlive bool `json:"-"`
}

// Response is the reply envelope. A Submit connection with Wait set is the
// one place the protocol streams: the scheduler writes a Submit frame
// (admission verdict), then — with SubmitRequest.Progress set — any number
// of Progress frames, and finally a Result frame on the same connection.
type Response struct {
	// Version is the effective protocol version the server negotiated for
	// this connection.
	Version   int
	Err       string
	Perf      *PerfResponse
	Exec      *ExecResponse
	Heartbeat *HeartbeatResponse
	Submit    *SubmitResponse
	Result    *CampaignResult
	Progress  *ProgressUpdate
	Stats     *StatsResponse
	Attach    *AttachResponse

	// Control plane.
	Cancel        *CancelResponse
	Info          *CampaignInfo
	ListCampaigns *ListCampaignsResponse

	// Scheduler ring.
	Redirect *RedirectInfo     `json:",omitempty"`
	Ring     *RingPingResponse `json:",omitempty"`
	Segment  *SegmentResponse  `json:",omitempty"`

	// KeepAlive is the frame header's keep-alive flag, not payload: the
	// responder will read another request on this connection. Set only on
	// the answer to a request that carried the flag, by Server.ServeConn's
	// answer callback.
	KeepAlive bool `json:"-"`
}

// RedirectInfo is the ring's client routing answer: a shard that receives a
// request for a campaign another shard owns answers it with a single
// response that carries only Redirect. The client re-issues the request
// against Owner and remembers the mapping, so steady-state traffic goes
// direct.
type RedirectInfo struct {
	// ID is the campaign the redirect is about (0 for request kinds that
	// carry no campaign).
	ID uint64
	// Owner is the ring address of the shard that owns the campaign.
	Owner string
}

// RingPingRequest is the ring liveness beacon. A member that answers it is
// alive; a peer below the protocol floor fails to decode the answer and so
// never is.
type RingPingRequest struct{}

// RingPingResponse is the beacon's answer.
type RingPingResponse struct{}

// SegmentRequest pulls a peer's campaign-journal bytes for failover
// replay. Generation names the journal incarnation the puller has
// seen (journals change generation when rotated or compacted); Offset is
// the byte position after the puller's last pull within that generation.
type SegmentRequest struct {
	Generation uint64
	Offset     int64
}

// SegmentResponse carries journal bytes from Offset (of the request) to the
// journal's current end. Reset=true means the journal's generation changed
// (rotation/compaction rewrote the file): Data then starts at offset 0 of
// the new generation and the puller must replace, not append, its replica.
type SegmentResponse struct {
	Generation uint64
	Offset     int64
	Data       []byte
	Reset      bool
}

// SeDInfo describes one server daemon as the scheduler's table knows it.
type SeDInfo struct {
	Cluster string
	Addr    string
	Procs   int
}

// PerfRequest is protocol step (1): the experiment parameters.
type PerfRequest struct {
	Scenarios int
	Months    int
	Heuristic string
}

// PerfResponse is step (3): the cluster's performance vector — entry k−1 is
// the makespan of k scenarios on this cluster.
type PerfResponse struct {
	Cluster string
	Procs   int
	Vector  []float64
}

// ExecRequest is step (5): the scenarios assigned to this cluster.
type ExecRequest struct {
	ScenarioIDs []int
	Months      int
	Heuristic   string
}

// ExecResponse is step (6): the execution report. Round and FirstScenario
// are filled in by the scheduler, not the SeD: the SeD evaluates one chunk
// without knowing which repartition round asked for it.
type ExecResponse struct {
	Cluster    string
	Makespan   float64
	Allocation core.Allocation
	Scenarios  int
	// Round is the repartition round that dispatched the chunk (0 for the
	// first attempt; higher after requeues). Rounds run sequentially, so a
	// campaign's makespan is the sum of per-round chunk maxima.
	Round int
	// FirstScenario is the lowest scenario ID of the chunk. Scenario IDs are
	// disjoint across completed chunks, so (Cluster, Scenarios,
	// FirstScenario) is a total order — the tiebreak that keeps report
	// ordering deterministic when the same cluster serves equal-sized chunks
	// in two rounds.
	FirstScenario int
	// Result is the evaluating backend's full report (utilization, trace).
	// It exists only in the memory of the process that ran the evaluation:
	// no frame encodes it, the journal skips it, and it is nil on every
	// report that crossed a wire or came back from a replay.
	Result *engine.Result `json:"-"`
}

// CampaignMakespan folds chunk reports into a campaign's completion time:
// repartition rounds run sequentially (a requeued round starts only after
// the previous round's chunks resolved), so the makespan is the sum of
// per-round chunk maxima — not the global max over all reports, which
// undercounts every campaign that survived a failure. Summation runs in
// ascending round order: float addition is not associative, and every
// accounting site (campaign lifecycle, verifier) must agree bit for
// bit, which is why this is the one shared implementation.
func CampaignMakespan(reports []ExecResponse) float64 {
	maxByRound := make(map[int]float64)
	maxRound := 0
	for _, r := range reports {
		if r.Makespan > maxByRound[r.Round] {
			maxByRound[r.Round] = r.Makespan
		}
		if r.Round > maxRound {
			maxRound = r.Round
		}
	}
	total := 0.0
	for round := 0; round <= maxRound; round++ {
		total += maxByRound[round]
	}
	return total
}

// HeartbeatRequest is a SeD's liveness beacon to the scheduler. It carries
// the full registration payload so a beat from an unknown — or evicted —
// daemon re-registers it: a SeD that rejoins after a network blip needs no
// separate recovery protocol.
type HeartbeatRequest struct {
	Cluster  string
	Addr     string
	Procs    int
	InFlight int
	// Speed is the daemon's relative speed factor: 1.0 is the reference, 0.5
	// means the SeD runs everything twice as slowly and its advertised
	// performance vectors are scaled accordingly, so the repartition hands
	// it proportionally smaller chunks. 0 reads as 1.0.
	Speed float64
	// Draining marks a daemon that has stopped accepting new placements:
	// the scheduler keeps the entry (its in-flight chunks must finish and
	// bank) but excludes it from new dispatches, so a graceful scale-down
	// never requeues a chunk.
	Draining bool
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct{}

// SubmitRequest asks the scheduler to run one simulation campaign: a full
// Figure-9 protocol round (performance vectors, repartition, execution)
// served from the daemon's online queue.
type SubmitRequest struct {
	Scenarios int
	Months    int
	Heuristic string
	// Wait keeps the connection open: the scheduler streams the admission
	// verdict immediately and the campaign result when it completes.
	Wait bool
	// Progress asks for per-campaign progress frames between the verdict and
	// the result. Honored only on Wait connections.
	Progress bool
	// Priority orders the admission queue: higher-priority campaigns
	// dispatch first, ties run in admission order.
	Priority int
	// Labels are the campaign's operator-facing tags, matched as a subset by
	// KindListCampaigns filters.
	Labels map[string]string
	// Deadline overrides the scheduler's per-campaign timeout for this one
	// campaign (0 keeps the daemon default).
	Deadline time.Duration
	// Key names the submission, so that sending it twice admits it once:
	// the scheduler answers a key it already admitted with that campaign, as
	// an attach would. The scheduler refuses the zero key, which names no
	// submission.
	Key SubmitKey
}

// SubmitKey is a client-minted submission key. It travels as 16 raw bytes
// and is journaled with the admission as 32 hex digits.
type SubmitKey [16]byte

// IsZero reports whether k is the zero key, which names no submission.
func (k SubmitKey) IsZero() bool { return k == SubmitKey{} }

// MarshalText encodes k as hex: the journal's form.
func (k SubmitKey) MarshalText() ([]byte, error) {
	return hex.AppendEncode(nil, k[:]), nil
}

// UnmarshalText decodes MarshalText's hex.
func (k *SubmitKey) UnmarshalText(b []byte) error {
	if len(b) != hex.EncodedLen(len(k)) {
		return fmt.Errorf("diet: submission key %q: want %d hex digits", b, 2*len(k))
	}
	_, err := hex.Decode(k[:], b)
	return err
}

// SubmitResponse is the admission verdict. Accepted=false means the bounded
// queue was full; the client may retry later.
type SubmitResponse struct {
	ID         uint64
	Accepted   bool
	Reason     string
	QueueDepth int
	// Code classifies a rejection (Accepted=false) so clients can branch
	// without string-matching Reason: RejectQueueFull means the daemon-wide
	// queue bound was hit, RejectQuota means the submitting tenant's own
	// admission quota was. Both are transient verdicts worth retrying; the
	// quota code tells a multi-tenant client that backing off will not help
	// until its own earlier campaigns drain. Empty on acceptance (treat a
	// codeless rejection as queue-full).
	Code string
}

// Rejection codes carried by SubmitResponse.Code.
const (
	RejectQueueFull = "queue-full"
	RejectQuota     = "quota-exceeded"
)

// AttachRequest reconnects to a campaign by ID — after a network cut, a
// client restart, or a scheduler restart that replayed its journal. The
// connection streams exactly like a submit-wait connection, except the
// verdict frame is an AttachResponse and the progress stream starts with the
// campaign's full replayed history.
type AttachRequest struct {
	ID uint64
	// Progress asks for progress frames (replayed history plus live updates)
	// between the verdict and the result.
	Progress bool
}

// AttachResponse is the attach verdict. Found=false means the scheduler does
// not know the campaign — it was never admitted, or was pruned past the
// retention cap; resubmit instead of retrying.
type AttachResponse struct {
	ID     uint64
	Found  bool
	Status string
	Done   int
	Total  int
}

// Campaign states reported by CampaignResult.Status.
const (
	CampaignQueued  = "queued"
	CampaignRunning = "running"
	CampaignDone    = "done"
	CampaignFailed  = "failed"
	// CampaignCancelled is the terminal state of a campaign aborted by
	// KindCancel: admission-queue removal or cooperative abort
	// of in-flight work, journaled terminally — a cancelled campaign is
	// never re-admitted by a journal replay.
	CampaignCancelled = "cancelled"
)

// CancelRequest aborts a campaign by ID. A queued campaign is
// removed before it ever dispatches; a running campaign stops at the next
// chunk boundary — in-flight SeD exchanges are abandoned and their reports
// discarded, so no chunk frame follows the cancel verdict.
type CancelRequest struct{ ID uint64 }

// CancelResponse is the cancel verdict. Found=false means the scheduler does
// not know the campaign. Status is the campaign's state after the verdict:
// "cancelled" when this request (or an earlier one) cancelled it, or the
// terminal state ("done"/"failed") that beat the cancel to the finish line —
// cancelling a finished campaign is a no-op, not an error.
type CancelResponse struct {
	ID     uint64
	Found  bool
	Status string
}

// InfoRequest fetches one campaign's control-plane snapshot.
type InfoRequest struct{ ID uint64 }

// CampaignInfo is the control-plane view of one campaign: the submit options
// it carried plus its live progress gauges — what an operator enumerating a
// multi-tenant scheduler sees, as opposed to the CampaignResult a waiting
// submitter streams.
type CampaignInfo struct {
	ID uint64
	// Found is false when the scheduler does not know the campaign (KindInfo
	// on an unknown or pruned ID); every other field is then zero.
	Found     bool
	Status    string
	Priority  int
	Labels    map[string]string
	Heuristic string
	Scenarios int
	Months    int
	// Done counts scenarios with a finished chunk report; Total mirrors
	// Scenarios so clients can render progress without the shape.
	Done  int
	Total int
	// Rounds counts repartition rounds started; Requeues counts chunks lost
	// to dead SeDs and re-repartitioned.
	Rounds   int
	Requeues int
	// Makespan is set once the campaign is done.
	Makespan float64
	Err      string
	// Tenant is the fair-queueing tenant the campaign was admitted under
	// (the value of the scheduler's tenant label key, "default" when the
	// campaign carries none).
	Tenant string
	// QueuePos is the campaign's 1-based dispatch position within its
	// tenant's queue — the number of campaigns of the same tenant that will
	// dispatch at or before it. 0 once the campaign left the queue.
	QueuePos int
	// WaitMs is the campaign's admission-to-dispatch wait: still ticking
	// while queued, frozen at the dispatch point after.
	WaitMs float64
}

// ListCampaignsRequest enumerates the scheduler's campaign table. Status,
// when non-empty, keeps only campaigns in that state; Labels, when
// non-empty, keeps only campaigns whose label set contains every given pair
// (subset match).
type ListCampaignsRequest struct {
	Status string
	Labels map[string]string
	// Local asks a ring member to answer from its own table, not fan out.
	Local bool
}

// ListCampaignsResponse carries the matching campaigns in ascending ID
// (admission) order.
type ListCampaignsResponse struct {
	Campaigns []CampaignInfo
}

// LabelsMatch reports whether got contains every pair of want (subset
// match); an empty want matches everything. It is the one label-filter
// semantic of the control plane, shared by the scheduler and the local
// runner so List behaves identically on both.
func LabelsMatch(got, want map[string]string) bool {
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// CampaignResult is the terminal state of one campaign. Reports carries one ExecResponse per dispatched chunk; a cluster
// appears more than once when work was requeued onto it after a failure.
type CampaignResult struct {
	ID       uint64
	Status   string
	Makespan float64
	Reports  []ExecResponse
	// Requeues counts chunks that had to be re-dispatched after a SeD died.
	Requeues int
	// Done and Total count scenarios with a finished chunk report: a failed
	// or cancelled campaign ends with Done below Total.
	Done  int
	Total int
	Err   string
}

// Progress stages reported by ProgressUpdate.Stage.
const (
	// StagePlanned: the repartition is computed; Planned lists each cluster's
	// scenario share for this attempt.
	StagePlanned = "planned"
	// StageChunk: one cluster finished its share; Chunk carries its report.
	StageChunk = "chunk"
	// StageRequeue: a cluster died mid-chunk and its scenarios went back on
	// the campaign's plate for re-repartition.
	StageRequeue = "requeue"
)

// PlannedChunk is one cluster's share of a repartition attempt.
type PlannedChunk struct {
	Cluster   string
	Scenarios int
}

// ProgressUpdate is one progress frame: a campaign's state transition.
// Done/Total count scenarios with a finished chunk report, so clients can
// render completion without understanding the stages.
type ProgressUpdate struct {
	ID    uint64
	Stage string
	// Planned is set on StagePlanned frames.
	Planned []PlannedChunk
	// Chunk is set on StageChunk frames.
	Chunk *ExecResponse
	// Requeued is set on StageRequeue frames: the scenario count sent back
	// for re-repartition.
	Requeued int
	Done     int
	Total    int
}

// StatsRequest asks the scheduler for its gauges.
type StatsRequest struct {
	// Local asks a ring member to answer from its own gauges, not fan out.
	Local bool
}

// SeDStatus is one entry of the scheduler's daemon table.
type SeDStatus struct {
	Cluster string
	Addr    string
	Procs   int
	Alive   bool
	// InFlight is the load the daemon itself reported on its last
	// heartbeat — it includes requests from direct clients the
	// scheduler never sees.
	InFlight int
	// Outstanding is the scheduler's own view: perf/exec requests it
	// currently holds open against the daemon (bounded by the per-SeD
	// in-flight limit).
	Outstanding int
	// SinceBeat is the age of the last heartbeat.
	SinceBeat time.Duration
	// Speed is the daemon's advertised relative speed factor (1.0 when it
	// advertises none).
	Speed float64
	// Draining is true while the daemon is gracefully leaving the fleet:
	// excluded from new dispatches, finishing what it holds.
	Draining bool
	// Leases counts repartition rounds that snapshotted this daemon into
	// their dispatch pool and have not finished processing results yet. A
	// draining daemon with zero leases and zero outstanding requests is
	// safe to deregister.
	Leases int
}

// TenantStatus is one tenant's slice of the scheduler's weighted-fair
// queueing state: its configured weight, live gauges, and service counters.
// Queue-wait moments (sum/max/count over admission-to-dispatch waits) are
// the fairness signal — under WFQ they should track 1/weight.
type TenantStatus struct {
	Tenant string
	Weight float64
	Queued int
	// Running counts the tenant's campaigns currently held by a dispatcher.
	Running       int
	Admitted      uint64
	Completed     uint64
	Failed        uint64
	Cancelled     uint64
	QuotaRejected uint64
	// WaitCount / WaitSumMs / WaitMaxMs summarize admission-to-dispatch
	// queue waits of the tenant's dispatched campaigns.
	WaitCount uint64
	WaitSumMs float64
	WaitMaxMs float64
}

// StatsResponse is the scheduler's state snapshot.
type StatsResponse struct {
	QueueDepth    int
	MaxQueueDepth int
	Running       int
	Completed     uint64
	Failed        uint64
	// Cancelled counts campaigns terminated by KindCancel.
	Cancelled uint64
	Rejected  uint64
	Requeues  uint64
	Evicted   uint64
	SeDs      []SeDStatus
	// Tenants is the per-tenant weighted-fair-queueing breakdown, sorted by
	// tenant name. Empty from pre-WFQ daemons.
	Tenants []TenantStatus
	// OldestWaitMs is the longest admission-to-now wait among campaigns
	// still queued — the deadline-pressure signal an autoscaler samples. 0
	// with an empty queue.
	OldestWaitMs float64
}

// RemoteError is an answered request whose response carried an Err payload:
// the peer was reachable and spoke the protocol, it just refused or failed
// the operation. Ring-aware clients use the distinction to stop rotating
// through members — an authoritative refusal from one shard will not get
// better at the next — while plain transport failures stay retryable.
type RemoteError struct {
	// Kind is the request kind the error answers.
	Kind string
	// Msg is the remote's error text, verbatim.
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("diet: %s: remote error: %s", e.Kind, e.Msg)
}

// AcceptRequest reads one request frame on a served connection and
// negotiates its version under ProtocolVersion.
// Peers this build has no codec for are refused and counted (WireCounters
// Refused): a connection that does not open with the frame magic is simply
// dropped — such a peer could not parse an answer — and a request stamped
// below ProtocolFloor is told the minimum in one error frame. The caller closes
// the connection on any error.
func (d *FrameDecoder) AcceptRequest(rw io.ReadWriter) (*Request, int, error) {
	req, ver, err := d.acceptRequest(rw)
	switch {
	case errors.Is(err, errVersionTooOld):
		wireRefused.Add(1)
		_ = WriteResponseFrame(rw, &Response{Err: err.Error()})
	case errors.Is(err, errBadMagic):
		wireRefused.Add(1)
	}
	return req, ver, err
}

func (d *FrameDecoder) acceptRequest(r io.Reader) (*Request, int, error) {
	h, p, err := d.readFrame(r)
	if err != nil {
		if errors.Is(err, errVersionTooOld) {
			// Consume the refused frame's payload, so that closing does not
			// reset the connection under the error frame.
			_, _ = io.CopyN(io.Discard, r, int64(h.Length))
		}
		return nil, 0, err
	}
	req, err := d.DecodeRequestFrame(h, p)
	if err != nil {
		return nil, 0, err
	}
	ver, err := NegotiateVersion(req.Version, ProtocolVersion)
	if err != nil {
		return nil, 0, err
	}
	return req, ver, nil
}
