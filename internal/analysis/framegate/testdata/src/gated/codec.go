// Package gated is the correctly-gated extract of internal/diet's codec:
// the shape the framegate analyzer must accept without a single diagnostic.
// Each payload states its layout once, in its wire method; the v5 and v7
// fields sit behind their guards exactly as production has them, and the
// nested report reaches its fields through its own wire method.
package gated

// Protocol versions, as in internal/diet/protocol.go.
const (
	ProtocolV5 = 5
	ProtocolV7 = 7
)

// coder stands in for the bidirectional payload walker (bookkeeping;
// ignored by the schema). The analyzer only needs it to type-check.
type coder struct {
	ver int
	enc bool
}

func (c *coder) u64(v *uint64, what string)   {}
func (c *coder) int(v *int, what string)      {}
func (c *coder) f64(v *float64, what string)  {}
func (c *coder) bool(v *bool, what string)    {}
func (c *coder) str(v *string, what string)   {}
func (c *coder) count(n int, what string) int { return n }

// SubmitResponse carries the v5 field.
type SubmitResponse struct {
	ID         uint64
	Accepted   bool
	Reason     string
	QueueDepth int
	Code       string
}

func (x *SubmitResponse) wire(c *coder) {
	c.u64(&x.ID, "submit id")
	c.bool(&x.Accepted, "submit accepted")
	c.str(&x.Reason, "submit reason")
	c.int(&x.QueueDepth, "submit queue depth")
	// Code is a v5 field: a frame negotiated lower must stay byte-exact for
	// pre-v5 peers.
	if c.ver >= ProtocolV5 {
		c.str(&x.Code, "submit reject code")
	}
}

// HeartbeatRequest carries the two v7 fields.
type HeartbeatRequest struct {
	Cluster  string
	Addr     string
	Procs    int
	InFlight int
	Speed    float64
	Draining bool
}

func (x *HeartbeatRequest) wire(c *coder) {
	c.str(&x.Cluster, "heartbeat cluster")
	c.str(&x.Addr, "heartbeat addr")
	c.int(&x.Procs, "heartbeat procs")
	c.int(&x.InFlight, "heartbeat inflight")
	if c.ver >= ProtocolV7 {
		c.f64(&x.Speed, "heartbeat speed")
		c.bool(&x.Draining, "heartbeat draining")
	}
}

// HeartbeatResponse is the one-field payload.
type HeartbeatResponse struct{ OK bool }

func (x *HeartbeatResponse) wire(c *coder) { c.bool(&x.OK, "heartbeat ok") }

// CampaignResult nests a list of payloads that bring their own layout, and
// sizes it in a decode-only branch that touches no new wire field.
type CampaignResult struct {
	ID       uint64
	Status   string
	Makespan float64
	Requeues int
	Done     int
	Total    int
	Err      string
	Reports  []HeartbeatResponse
}

func (x *CampaignResult) wire(c *coder) {
	c.u64(&x.ID, "result id")
	c.str(&x.Status, "result status")
	c.f64(&x.Makespan, "result makespan")
	c.int(&x.Requeues, "result requeues")
	c.int(&x.Done, "result done")
	c.int(&x.Total, "result total")
	c.str(&x.Err, "result error")
	n := c.count(len(x.Reports), "result reports")
	if !c.enc {
		x.Reports = make([]HeartbeatResponse, n)
	}
	for i := range x.Reports {
		x.Reports[i].wire(c)
	}
}

// A wire method on a non-struct type and a free function of the same name
// are not payload layouts.
type kind byte

func (k *kind) wire(c *coder) {}

func wire(c *coder, x *SubmitResponse) { c.str(&x.Code, "not a layout") }
