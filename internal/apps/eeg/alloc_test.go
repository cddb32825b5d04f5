package eeg

import (
	"testing"

	"wishbone/internal/apps/apptest"
	"wishbone/internal/dataflow"
)

// TestWorkAllocs pins the per-element Work path — the one a node runs
// when arrivals come one at a time — to allocating only what it emits:
// filter temporaries come from the scratch pool and zip queues keep
// their capacity.
func TestWorkAllocs(t *testing.T) {
	app := NewWithChannels(2)
	trace := app.SampleTrace(1, 2)
	apptest.CheckWorkAllocs(t, app.Graph, func(in *dataflow.Instance) {
		for _, input := range trace {
			in.Inject(input.Source, input.Events[0])
		}
	})
}
