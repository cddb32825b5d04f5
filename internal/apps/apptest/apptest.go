// Package apptest holds checks shared by the application packages'
// tests.
package apptest

import (
	"reflect"
	"testing"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
)

// sink keeps emitted values reachable so the compiler cannot elide them.
var sink dataflow.Value

type workCall struct {
	port int
	v    dataflow.Value
}

// CheckWorkAllocs asserts that every operator's per-element Work
// allocates nothing beyond the values it emits. inject drives one event
// through an unbatched instance of g; each operator's recorded calls are
// then replayed against fresh, warmed state under testing.AllocsPerRun.
// An emitted slice may cost two allocations (its backing array and the
// interface header boxing it) and any other emitted value one.
func CheckWorkAllocs(t *testing.T, g *dataflow.Graph, inject func(*dataflow.Instance)) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts of pooled scratch are not stable under the race detector")
	}
	calls := make(map[*dataflow.Operator][]workCall)
	works := make(map[*dataflow.Operator]dataflow.WorkFunc)
	for _, op := range g.Operators() {
		op, work := op, op.Work
		if work == nil {
			continue
		}
		works[op] = work
		op.Work = func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
			calls[op] = append(calls[op], workCall{port, v})
			work(ctx, port, v, emit)
		}
	}
	prog, err := dataflow.Compile(g, dataflow.CompileOptions{})
	for op, work := range works {
		op.Work = work
	}
	if err != nil {
		t.Fatal(err)
	}
	inject(prog.NewInstance(0))
	if len(calls) == 0 {
		t.Fatal("the injected event reached no operator")
	}
	for _, op := range g.Operators() {
		recorded := calls[op]
		if len(recorded) == 0 {
			continue
		}
		work := works[op]
		ctx := &dataflow.Ctx{Counter: new(cost.Counter)}
		if op.NewState != nil {
			ctx.State = op.NewState()
		}
		budget := 0
		emit := func(v dataflow.Value) {
			sink = v
			switch reflect.ValueOf(v).Kind() {
			case reflect.Bool:
				// Boxed from static storage.
			case reflect.Slice:
				budget += 2
			default:
				budget++
			}
		}
		replay := func() {
			for _, c := range recorded {
				work(ctx, c.port, c.v, emit)
			}
		}
		replay()
		budget = 0
		const runs = 50
		got := testing.AllocsPerRun(runs, replay)
		// AllocsPerRun calls replay once more before measuring.
		if want := float64(budget) / (runs + 1); got > want {
			t.Errorf("%s: %.2f allocations per event, want at most %.2f (its emitted values)", op.Name, got, want)
		}
	}
}
