package framegate_test

import (
	"testing"

	"oagrid/internal/analysis/analysistest"
	"oagrid/internal/analysis/framegate"
)

// TestGatedCodecIsClean pins the correctly-gated codec extract — wire
// methods in the shape production internal/diet has today — to zero
// diagnostics.
func TestGatedCodecIsClean(t *testing.T) {
	analysistest.Run(t, "testdata/src/gated", framegate.Analyzer)
}

// TestUngatedCodeRegression is the acceptance fixture for the protocol-v5
// incident: deleting the `c.ver >= ProtocolV5` guard around
// SubmitResponse.Code in its wire method must produce a framegate finding,
// alongside the neighboring gate mistakes the fixture stages.
func TestUngatedCodeRegression(t *testing.T) {
	analysistest.Run(t, "testdata/src/ungated", framegate.Analyzer)
}
