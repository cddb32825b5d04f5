package speech

import (
	"testing"

	"wishbone/internal/apps/apptest"
	"wishbone/internal/dataflow"
)

// TestWorkAllocs pins the per-element Work path — the one a node runs
// when arrivals come one at a time — to allocating only what it emits:
// every kernel's temporaries come from the scratch pool.
func TestWorkAllocs(t *testing.T) {
	app := New()
	frame := app.SampleTrace(1, 0.1).Events[0]
	apptest.CheckWorkAllocs(t, app.Graph, func(in *dataflow.Instance) {
		in.Inject(app.Pipeline[0], frame)
	})
}
