package framegate

// WireSchema is the committed statement of the binary codec's frame
// layouts, keyed by hot payload type — the receiver of a `wire(*coder)`
// method in internal/diet/binary.go. Base lists the "Type.Field" references
// every peer at the floor version (v4) codes unconditionally, in no
// particular order (byte order is pinned by internal/diet's golden frames);
// fields of nested structs coded inline are listed under the type whose wire
// method codes them. Gated maps later fields to the negotiated version that
// introduced them.
//
// Editing a wire method's layout without editing this file is a framegate
// finding by design: the schema diff is the reviewable record of what
// changed on the wire, exactly the review signal whose absence let the
// ungated SubmitResponse.Code append ship in PR 7.
type WireSchema struct {
	// Ignore names the bookkeeping struct types whose fields are not wire
	// payload: envelopes, headers and codec state.
	Ignore map[string]bool
	// Base maps payload type -> unconditional "Type.Field" layout.
	Base map[string][]string
	// Gated maps payload type -> "Type.Field" -> minimum negotiated version.
	Gated map[string]map[string]int
}

// Schema is the committed schema; cmd/oalint and the fixture tests both run
// against it.
var Schema = WireSchema{
	Ignore: map[string]bool{
		"Request":      true,
		"Response":     true,
		"FrameHeader":  true,
		"FrameDecoder": true,
		"coder":        true,
	},
	Base: map[string][]string{
		// ---- requests ----
		"SubmitRequest": {
			"SubmitRequest.Scenarios", "SubmitRequest.Months", "SubmitRequest.Heuristic",
			"SubmitRequest.Wait", "SubmitRequest.Progress", "SubmitRequest.Priority",
			"SubmitRequest.Deadline", "SubmitRequest.Labels",
		},
		"ExecRequest":      {"ExecRequest.Months", "ExecRequest.Heuristic", "ExecRequest.ScenarioIDs"},
		"PerfRequest":      {"PerfRequest.Scenarios", "PerfRequest.Months", "PerfRequest.Heuristic"},
		"HeartbeatRequest": {"HeartbeatRequest.Cluster", "HeartbeatRequest.Addr", "HeartbeatRequest.Procs", "HeartbeatRequest.InFlight"},
		"AttachRequest":    {"AttachRequest.ID", "AttachRequest.Progress"},
		"ResultRequest":    {"ResultRequest.ID"},

		// ---- responses ----
		"SubmitResponse": {
			"SubmitResponse.ID", "SubmitResponse.Accepted", "SubmitResponse.Reason", "SubmitResponse.QueueDepth",
		},
		"ExecResponse": {
			"ExecResponse.Cluster", "ExecResponse.Makespan", "ExecResponse.Scenarios", "ExecResponse.Round",
			"ExecResponse.FirstScenario", "ExecResponse.Allocation",
			"Allocation.Groups", "Allocation.PostProcs", "Allocation.Heuristic",
		},
		"PerfResponse":      {"PerfResponse.Cluster", "PerfResponse.Procs", "PerfResponse.Vector"},
		"HeartbeatResponse": {"HeartbeatResponse.OK"},
		"AttachResponse":    {"AttachResponse.ID", "AttachResponse.Found", "AttachResponse.Status", "AttachResponse.Done", "AttachResponse.Total"},
		"ProgressUpdate": {
			"ProgressUpdate.ID", "ProgressUpdate.Stage", "ProgressUpdate.Done", "ProgressUpdate.Total",
			"ProgressUpdate.Requeued", "ProgressUpdate.Planned", "ProgressUpdate.Chunk",
			"PlannedChunk.Cluster", "PlannedChunk.Scenarios",
		},
		"CampaignResult": {
			"CampaignResult.ID", "CampaignResult.Status", "CampaignResult.Makespan", "CampaignResult.Requeues",
			"CampaignResult.Done", "CampaignResult.Total", "CampaignResult.Err", "CampaignResult.Reports",
		},
	},
	Gated: map[string]map[string]int{
		// Protocol v5: the SubmitResponse reject-code field, coded only when
		// the negotiated version is >= 5 — the retrofit that fixed the PR 7
		// break.
		"SubmitResponse": {"SubmitResponse.Code": 5},
		// Protocol v7: the elastic-fleet heartbeat fields — the SeD's speed
		// factor and its graceful-drain flag — gated exactly like the v5
		// retrofit so pre-v7 peers keep byte-exact v4 heartbeat frames.
		"HeartbeatRequest": {"HeartbeatRequest.Speed": 7, "HeartbeatRequest.Draining": 7},
	},
}
