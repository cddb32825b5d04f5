package runtime

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The pipelined streaming session overlaps the simulation's two stages:
// while the delivery workers replay window w against the server engines,
// the node shards are already simulating window w+1. The stages are
// joined by per-worker channels buffered to one window's worth of jobs,
// so backpressure is structural: a delivery worker still holding the
// previous window's jobs blocks the dispatch, bounding the pipeline at
// roughly one window in flight per stage.
//
// Stage 1 — the node phase — is sharded by origin with pinned state: node
// shard s is a persistent worker goroutine owning nodes n ≡ s (mod
// nodeShards), the same origin partition the delivery loop uses, so each
// node's persistent dataflow.Instance, sender and scratch stay with one
// goroutine for the whole session instead of migrating across a worker
// pool every window. Stage 2 is one persistent goroutine per delivery
// shard, consuming its windows in order.
//
// Between the stages, the coordinator (the Offer caller) runs the global
// coupling step that cannot shard — reduce aggregation, the time sort,
// and channel pricing (a window's delivery ratio is a function of every
// shard's offered load) — in window order, mirroring how distributed-
// Newton schemes interleave independent per-node subproblem steps with a
// serial global coupling step.
//
// Determinism: each node's simulation is a pure function of its inputs
// wherever it runs; the coordinator's coupling step sees the per-node
// message streams concatenated in node order, exactly like the phased
// path; pricing happens in window order on one goroutine; and each
// delivery shard's state (server engine, reassembly, loss RNG) is touched
// only by its own worker, in window order. The pipelined Result is
// therefore byte-identical to the phased and batch ones at any
// Shards/Workers setting — the Pipelined parity tests pin this.
//
// Fragment storage is carved from per-window arena sets (windowBufs) that
// recycle once the window's last delivery shard releases them, so a
// steady-state session allocates no fragment or message-slice storage.
type pipe struct {
	s      *Session
	shards [][]int // node IDs per node-phase shard

	nodeCh []chan *nodeJob
	nodeWG sync.WaitGroup

	// Delivery shards are owned by min(#shards, worker budget) persistent
	// workers — shard i belongs to worker i mod len(shardCh) — so a
	// pipelined session never runs more concurrent delivery than
	// Config.Workers allows (the multi-tenant server's SimWorkers bound
	// must hold in pipelined mode too). A shard's jobs always flow
	// through its owner's FIFO, preserving per-shard window order; the
	// channels are buffered to one window's worth of jobs per worker so
	// dispatching a window never waits on that window's own delivery.
	shardCh    []chan shardJob
	shardWG    sync.WaitGroup
	workerBusy []int64 // per delivery worker, owner-written
	free       chan *windowBufs

	mu  sync.Mutex
	err error
}

// nodeJob is one window's node-phase work order, broadcast to every node
// shard; win carries the window's arenas and error slots.
type nodeJob struct {
	win *windowBufs
	wg  *sync.WaitGroup
}

// shardJob is one window's delivery batch for one shard.
type shardJob struct {
	shard int
	msgs  []message
	ratio float64
	win   *windowBufs
}

// windowBufs is the recyclable storage of one in-flight window: the
// node-shard fragment arenas (plus one for the aggregator), the merged
// and post-aggregation message slices, and the per-delivery-shard
// partitions. refs counts the delivery shards still reading it; the last
// release recycles everything.
type windowBufs struct {
	refs   atomic.Int32
	arenas []*fragArena // one per node shard, plus the aggregator's last
	msgs   []message
	out    []message
	parts  [][]message
	errs   []error // per node shard
}

// newPipe builds the pipelined execution of s: persistent node-shard
// workers and delivery workers. Callers gate on the worker budget (see
// NewSession). The two stages run concurrently, so the budget is split
// between them — node shards get the larger half (their stage also feeds
// the coordinator's coupling step), delivery the rest — keeping the
// session's total concurrency within Config.Workers: the multi-tenant
// server's SimWorkers isolation bound holds in pipelined mode too.
func newPipe(s *Session) *pipe {
	cfg := &s.cfg
	budget := cfg.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	dwBudget := budget / 2
	if dwBudget < 1 {
		dwBudget = 1
	}
	nsBudget := budget - dwBudget
	if nsBudget < 1 {
		nsBudget = 1
	}
	if nsBudget > cfg.Nodes {
		nsBudget = cfg.Nodes
	}
	ns := cfg.Shards
	if ns <= 1 || ns > nsBudget {
		ns = nsBudget
	}
	p := &pipe{s: s, free: make(chan *windowBufs, 4)}
	p.shards = make([][]int, ns)
	for n := 0; n < cfg.Nodes; n++ {
		p.shards[n%ns] = append(p.shards[n%ns], n)
	}
	p.nodeCh = make([]chan *nodeJob, ns)
	for i := range p.nodeCh {
		p.nodeCh[i] = make(chan *nodeJob)
		p.nodeWG.Add(1)
		go p.nodeWorker(i)
	}
	dw := len(s.plan.shards)
	if dw > dwBudget {
		dw = dwBudget
	}
	jobsPerWorker := (len(s.plan.shards) + dw - 1) / dw
	p.shardCh = make([]chan shardJob, dw)
	p.workerBusy = make([]int64, dw)
	for i := range p.shardCh {
		p.shardCh[i] = make(chan shardJob, jobsPerWorker)
		p.shardWG.Add(1)
		go p.shardWorker(i)
	}
	return p
}

// nodeWorker feeds its pinned nodes' buffered arrivals for each window
// job. A work-function panic on client-supplied input surfaces as a bad
// arrival, like the phased path.
func (p *pipe) nodeWorker(i int) {
	defer p.nodeWG.Done()
	for job := range p.nodeCh[i] {
		for _, n := range p.shards[i] {
			if len(p.s.buf[n]) == 0 {
				continue
			}
			if err := p.feedNode(job.win, i, n); err != nil {
				job.win.errs[i] = err
				break
			}
		}
		job.wg.Done()
	}
}

func (p *pipe) feedNode(win *windowBufs, shard, n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = workPanicError(r, fmt.Sprintf("node %d", n))
		}
	}()
	ns := p.s.nodes[n]
	ns.s.arena = win.arenas[shard]
	ns.feed(&p.s.cfg, p.s.buf[n])
	return nil
}

// shardWorker replays its owned shards' delivery batches in window order
// (a shard's jobs always arrive on this worker's FIFO, in dispatch
// order). After a pipeline failure it keeps draining (releasing window
// storage) so the coordinator never blocks, but stops executing.
func (p *pipe) shardWorker(i int) {
	defer p.shardWG.Done()
	for job := range p.shardCh[i] {
		if p.failed() == nil {
			start := time.Now()
			if err := p.s.plan.shards[job.shard].deliver(job.msgs, job.ratio); err != nil {
				p.fail(err)
			}
			p.workerBusy[i] += int64(time.Since(start))
		}
		job.win.release(p)
	}
}

// flush runs one completed window through the pipeline: broadcast the
// node-phase job, wait for the shards (the per-window barrier the global
// pricing step needs), run aggregation, then price and dispatch — after
// which the coordinator returns to buffering the next window while the
// delivery shards are still working.
func (p *pipe) flush(span float64) error {
	if err := p.failed(); err != nil {
		return err
	}
	s := p.s
	win := p.getWin()
	var wg sync.WaitGroup
	wg.Add(len(p.nodeCh))
	job := &nodeJob{win: win, wg: &wg}
	for _, ch := range p.nodeCh {
		ch <- job
	}
	wg.Wait()
	for _, err := range win.errs {
		if err != nil {
			p.fail(err)
			p.recycle(win)
			return err
		}
	}
	// Merge the per-node output in node order — identical to the phased
	// path — and reset the senders' window accumulators (their backing
	// arrays are reused next window; the structs were copied out).
	win.msgs = s.collectWindow(win.msgs[:0])
	s.agg.arena = win.arenas[len(p.shards)]
	win.out = s.fold(win.msgs, win.out[:0])
	return s.deliverWindow(win.out, span, win)
}

// dispatch partitions one priced window by delivery shard and hands each
// non-empty shard's batch to its owning worker. A send blocks only while
// the worker still holds the previous window's jobs, which bounds the
// windows in flight.
func (p *pipe) dispatch(out []message, ratio float64, win *windowBufs) error {
	parts := win.parts
	if len(parts) == 1 {
		parts[0] = out
	} else {
		for i := range out {
			d := p.s.plan.shardFor(out[i].nodeID)
			parts[d] = append(parts[d], out[i])
		}
	}
	jobs := 0
	for i := range parts {
		if len(parts[i]) > 0 {
			jobs++
		}
	}
	if jobs == 0 {
		p.recycle(win)
		return nil
	}
	// +1 is the coordinator's own reference: without it, the shards could
	// finish and recycle win while this loop is still reading parts to
	// find the remaining non-empty entries.
	win.refs.Store(int32(jobs) + 1)
	for i := range parts {
		if len(parts[i]) > 0 {
			p.shardCh[i%len(p.shardCh)] <- shardJob{shard: i, msgs: parts[i], ratio: ratio, win: win}
		}
	}
	win.release(p)
	return p.failed()
}

// shutdown joins the workers (flushing nothing further) and reports the
// first pipeline error. Called exactly once, from Session.Close, before
// the delivery plan is collected.
func (p *pipe) shutdown() error {
	for _, ch := range p.nodeCh {
		close(ch)
	}
	p.nodeWG.Wait()
	for _, ch := range p.shardCh {
		close(ch)
	}
	p.shardWG.Wait()
	// Hand the recycled windows' arenas back to the process-wide pool so
	// the next run (or session) starts warm.
drain:
	for {
		select {
		case w := <-p.free:
			for _, a := range w.arenas {
				releaseArena(a)
			}
		default:
			break drain
		}
	}
	if t := p.s.cfg.Timings; t != nil {
		// The busiest delivery worker is the stage's critical path.
		var max int64
		for _, ns := range p.workerBusy {
			if ns > max {
				max = ns
			}
		}
		t.addDelivery(time.Duration(max))
	}
	return p.failed()
}

func (p *pipe) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *pipe) failed() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// getWin returns recycled window storage, or builds a fresh set when
// every buffer is still in flight.
func (p *pipe) getWin() *windowBufs {
	select {
	case w := <-p.free:
		return w
	default:
	}
	w := &windowBufs{
		arenas: make([]*fragArena, len(p.shards)+1),
		parts:  make([][]message, len(p.s.plan.shards)),
		errs:   make([]error, len(p.shards)),
	}
	for i := range w.arenas {
		w.arenas[i] = acquireArena()
	}
	return w
}

// release drops one delivery shard's reference; the last one recycles.
func (w *windowBufs) release(p *pipe) {
	if w.refs.Add(-1) <= 0 {
		p.recycle(w)
	}
}

// recycle resets the window's storage for reuse: arenas rewound, message
// slices truncated with their elements cleared so recycled buffers do
// not pin the delivered window's values.
func (p *pipe) recycle(w *windowBufs) {
	for _, a := range w.arenas {
		a.reset()
	}
	clearMessages(w.msgs)
	w.msgs = w.msgs[:0]
	clearMessages(w.out)
	w.out = w.out[:0]
	for i := range w.parts {
		clearMessages(w.parts[i])
		w.parts[i] = w.parts[i][:0]
	}
	for i := range w.errs {
		w.errs[i] = nil
	}
	select {
	case p.free <- w:
	default:
		// Free list full (deep error paths only): let the GC take it,
		// returning the arenas to the shared pool.
		for _, a := range w.arenas {
			releaseArena(a)
		}
	}
}

func clearMessages(ms []message) {
	for i := range ms {
		ms[i] = message{}
	}
}
