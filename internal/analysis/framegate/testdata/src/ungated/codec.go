// Package ungated reproduces the protocol-v5 incident verbatim, in the
// codec's present shape — the PR 7 change that coded SubmitResponse.Code with
// no negotiated-version gate, breaking every pre-v5 peer whose strict decoder
// rejects trailing payload bytes — plus the neighboring gate mistakes
// framegate must catch: a base field moved behind a gate, a gate pinned at
// the wrong version, a never-committed field (gated and not), a dropped base
// field, a dropped gated field and a payload type missing from the schema
// entirely.
package ungated

// Protocol versions, as in internal/diet/protocol.go.
const (
	ProtocolV5 = 5
	ProtocolV7 = 7
)

// coder stands in for the bidirectional payload walker (bookkeeping;
// ignored by the schema). The analyzer only needs it to type-check.
type coder struct{ ver int }

func (c *coder) u64(v *uint64, what string)  {}
func (c *coder) int(v *int, what string)     {}
func (c *coder) f64(v *float64, what string) {}
func (c *coder) bool(v *bool, what string)   {}
func (c *coder) str(v *string, what string)  {}

// SubmitResponse carries one never-committed field (Station) on top of the
// production layout.
type SubmitResponse struct {
	ID         uint64
	Accepted   bool
	Reason     string
	QueueDepth int
	Code       string
	Station    string
}

func (x *SubmitResponse) wire(c *coder) {
	c.u64(&x.ID, "submit id")
	c.bool(&x.Accepted, "submit accepted")
	c.str(&x.Reason, "submit reason")
	// A base field moved behind a gate: pre-v5 peers stop receiving it.
	if c.ver >= ProtocolV5 {
		c.int(&x.QueueDepth, "submit queue depth") // want `SubmitResponse\.QueueDepth is part of SubmitResponse's base layout but sits behind a v5 gate`
	}
	// The PR 7 bug, verbatim: the v5 field coded unconditionally.
	c.str(&x.Code, "submit reject code") // want `SubmitResponse\.Code is a v5 field of SubmitResponse coded without its negotiated-version gate`
	// A field nobody committed to the schema.
	c.str(&x.Station, "submit station") // want `SubmitResponse\.Station is not part of SubmitResponse's committed wire layout`
}

// HeartbeatRequest carries one never-committed field (Zone) on top of the
// production layout.
type HeartbeatRequest struct {
	Cluster  string
	Addr     string
	Procs    int
	InFlight int
	Speed    float64
	Draining bool
	Zone     string
}

func (x *HeartbeatRequest) wire(c *coder) { // want `HeartbeatRequest's base-layout field HeartbeatRequest\.Addr is no longer coded` `HeartbeatRequest's gated field HeartbeatRequest\.Draining \(v7\) is missing its guarded coding`
	c.str(&x.Cluster, "heartbeat cluster")
	// Addr dropped: old peers' payload offsets shift under them.
	c.int(&x.Procs, "heartbeat procs")
	c.int(&x.InFlight, "heartbeat inflight")
	// Gate pinned at the wrong version; Draining dropped with it.
	if c.ver >= 6 {
		c.f64(&x.Speed, "heartbeat speed") // want `HeartbeatRequest\.Speed is gated at v6 here but the schema pins it to v7`
	}
	// Version-gated, but never committed to the schema.
	if c.ver >= ProtocolV7 {
		c.str(&x.Zone, "heartbeat zone") // want `HeartbeatRequest\.Zone is version-gated but absent from the framegate schema`
	}
}

// TraceFrame is a payload type the schema has never heard of.
type TraceFrame struct{ Span string }

func (x *TraceFrame) wire(c *coder) { c.str(&x.Span, "trace span") } // want `TraceFrame has a wire layout but is not in the committed framegate schema`
