package core

import (
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpi3rma/internal/portals"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
)

// Message kinds of the strawman RMA protocol.
const (
	kPut       = portals.KindCoreBase + 0  // put / accumulate (AccOp in header)
	kGet       = portals.KindCoreBase + 1  // get request
	kGetReply  = portals.KindCoreBase + 2  // get data
	kAck       = portals.KindCoreBase + 3  // remote-completion acknowledgement
	kProbe     = portals.KindCoreBase + 4  // completion probe (RMA_complete)
	kProbeAck  = portals.KindCoreBase + 5  // completion probe reply
	kLockReq   = portals.KindCoreBase + 6  // coarse-grain lock request
	kLockGrant = portals.KindCoreBase + 7  // coarse-grain lock grant
	kLockRel   = portals.KindCoreBase + 8  // coarse-grain lock release
	kRMW       = portals.KindCoreBase + 9  // fetch-and-add / compare-and-swap
	kRMWReply  = portals.KindCoreBase + 10 // RMW old value
	kAM        = portals.KindCoreBase + 11 // active-message extension
	kBatch     = portals.KindCoreBase + 12 // aggregated put/accumulate batch
	kNotify    = portals.KindCoreBase + 13 // delivery-counter notification

	// Buddy-replication and rebuild protocol (DESIGN.md §14).
	kReplExpose  = portals.KindCoreBase + 14 // primary -> buddy: mirror this exposure
	kReplUpdate  = portals.KindCoreBase + 15 // primary -> buddy: versioned region bytes
	kReplAck     = portals.KindCoreBase + 16 // buddy -> primary: cumulative replicated version
	kRebuild     = portals.KindCoreBase + 17 // buddy -> spare: replay one replica
	kRebuildDone = portals.KindCoreBase + 18 // buddy -> spare: replay finished, start serving
	kPing        = portals.KindCoreBase + 19 // progress sentinel liveness probe (bait for the relay's failure detector)
)

// Header word indices shared by the protocol messages.
const (
	hHandle = 0 // target_mem handle (kPut/kGet/kRMW); expected count (kProbe); AM id (kAM)
	hDisp   = 1 // byte displacement into the target memory
	hCount  = 2 // target datatype count
	hMeta   = 3 // attrs (low 16) | AccOp<<16 | RMW sub-op<<24 | checker epoch<<32
	hReq    = 4 // origin request id (routing for replies)
	hSeq    = 5 // ordered-stream sequence number (0 = not ordered)
)

// Message flag bits (simnet.Message.Flags) for core kinds.
const (
	flagUnlockAfter = 1 << 0 // release the coarse lock after applying this op
)

// RMW sub-ops carried in hMeta bits 24..31.
const (
	rmwFetchAdd = 1
	rmwCompSwap = 2
	rmwFetch    = 3
)

// Options configures a rank's RMA engine.
type Options struct {
	// Atomicity selects the serializer mechanism backing the Atomic
	// attribute (default MechThread, the cheap case of Figure 2).
	Atomicity serializer.Mechanism
	// ApplyOverhead is the fixed virtual-time cost of one target memory
	// update (0 = DefaultApplyOverhead).
	ApplyOverhead time.Duration
	// ApplyPerKB is the virtual-time cost of updating 1024 bytes of
	// target memory (0 = DefaultApplyPerKB).
	ApplyPerKB time.Duration
	// ProgressQuantum models, for the MechProgress serializer, how often
	// the target enters the library: deferred atomic operations apply at
	// the next multiple of the quantum after they arrive (0 = the target
	// polls continuously).
	ProgressQuantum time.Duration
	// DefaultAttrs is ORed into the attributes of every operation issued
	// by this rank (the engine-level default).
	DefaultAttrs Attr
	// AddrBits is this rank's address-space width, 32 or 64 (0 = 64).
	AddrBits uint8
	// BatchOps enables origin-side operation batching: up to BatchOps
	// small puts/accumulates per (origin, target) pair are coalesced into
	// one aggregated wire message, unpacked and applied individually at
	// the target. 0 disables batching. A pending batch is flushed when it
	// reaches BatchOps operations or BatchBytes payload bytes, when a
	// non-batchable operation (get, RMW, active message, blocking or
	// coarse-locked atomic op) is issued to the same target, and by
	// Flush/Order/Complete.
	BatchOps int
	// BatchBytes bounds the accumulated payload of one batch (0 =
	// DefaultBatchBytes). Operations larger than BatchBytes bypass the
	// batch entirely — aggregation only pays off for small operations.
	BatchBytes int
	// ProbeCompletion forces Complete to use the probe round-trip even
	// when delivery-counter notifications could answer locally. For A/B
	// measurement (experiment E13); leave false.
	ProbeCompletion bool
	// ApplyShards partitions each exposed target memory into this many
	// fixed byte-range shards applied by a worker pool instead of the
	// serial target path. Operations confined to one shard apply in
	// parallel with other shards; spanning, ordered, and conflicting
	// operations route through a designated shard that waits for
	// everything routed before it (see shard.go). 0 or 1 keeps the serial
	// engine, which is bit-compatible by construction.
	ApplyShards int
	// ApplyWorkers bounds the worker pool draining the shard queues
	// (0 = one worker per shard). Setting ApplyWorkers > 1 with
	// ApplyShards unset enables sharding with ApplyWorkers shards.
	ApplyWorkers int
}

// DefaultBatchBytes is the per-batch payload bound when Options.BatchOps
// is set but BatchBytes is 0.
const DefaultBatchBytes = 8192

func (o Options) withDefaults() Options {
	if o.ApplyOverhead == 0 {
		o.ApplyOverhead = DefaultApplyOverhead
	}
	if o.ApplyPerKB == 0 {
		o.ApplyPerKB = DefaultApplyPerKB
	}
	if o.AddrBits == 0 {
		o.AddrBits = 64
	}
	if o.BatchOps > 0 && o.BatchBytes == 0 {
		o.BatchBytes = DefaultBatchBytes
	}
	if o.ApplyShards <= 1 && o.ApplyWorkers > 1 {
		o.ApplyShards = o.ApplyWorkers
	}
	if o.ApplyShards > 1 && o.ApplyWorkers <= 0 {
		o.ApplyWorkers = o.ApplyShards
	}
	return o
}

// originTarget is origin-side per-target bookkeeping.
type originTarget struct {
	sent         int64  // ops issued to this target (puts, accumulates, gets, RMWs, AMs)
	batched      int64  // of sent: ops that rode an aggregated message
	singleton    int64  // of sent: ops that paid their own wire message
	willConfirm  int64  // ops whose application will report a delivery counter (notify, remote-complete, batch, reply-carrying ops)
	orderSeq     uint64 // ordered-stream sequence for AttrOrdering on unordered networks
	chkEpoch     uint64 // synchronization epoch stamped on issued ops (advanced by Order/Complete; read by the semantic checker)
	fencePending bool   // an Order() is pending; next op must stall for drain
}

// probeWaiter is a queued completion probe at the target.
type probeWaiter struct {
	origin    int
	threshold int64
	reqID     uint64
}

// reorderBuf holds ordered-stream ops that arrived out of order.
type reorderBuf struct {
	expected uint64                         // next sequence number to apply
	held     map[uint64]func(at vtime.Time) // seq -> deferred processing
	heldAt   map[uint64]vtime.Time
}

// Engine is one rank's strawman RMA engine. Obtain it with Attach; there
// is exactly one per rank (it owns the rank's core message handlers).
type Engine struct {
	proc *runtime.Proc
	opts Options

	mu      sync.Mutex
	tmems   map[uint64]*exposure
	tmemSeq uint64
	reqs    map[uint64]*Request
	reqSeq  uint64
	targets map[int]*originTarget
	comms   map[uint64]Attr // per-communicator default attributes
	rings   map[int]*issueRing

	// Origin-side confirmation counters, guarded by cmplMu: confirmed[t]
	// is the highest cumulative applied-operation count target t has
	// reported back (via notifications, acks, replies, or probe answers);
	// confirmedAt is the virtual arrival time of the latest report.
	// cmplCond wakes Complete calls waiting for counters instead of
	// probing. pendingBatches routes batch notifications to the
	// remote-completion requests of the batch's member operations.
	cmplMu         sync.Mutex //rmalint:lockrank 20
	cmplCond       *sync.Cond
	confirmed      map[int]int64
	confirmedAt    map[int]vtime.Time
	pendingBatches map[uint64]*pendingBatch
	// failedLinks records links whose reliable-delivery retry budget ran
	// out (graceful degradation: requests to those targets fail with
	// ErrLinkFailed instead of waiting forever); linkErr is the first such
	// failure, reported sticky by Err().
	failedLinks map[int]error
	linkErr     error
	// failedRanks records peers the membership service confirmed dead:
	// requests toward them fail with ErrRankFailed (not ErrLinkFailed —
	// the rank is gone, not the path). rankErr is the first such death,
	// one tier above linkErr in Err()'s degradation report. Both are
	// per-peer: operations toward live ranks keep completing.
	failedRanks map[int]error
	rankErr     error
	// applyErr is the engine-fatal sticky failure (a shard worker panic):
	// unlike a single failed link it poisons every wait, because the
	// target-side apply pipeline itself is no longer trustworthy.
	applyErr error

	// confirmWaiters are Select count-threshold waiters on the
	// confirmation counters, serviced by noteConfirmed and failed by
	// onLinkFailed/failEngine (guarded by cmplMu like the counters).
	confirmWaiters []*countWaiter

	// Target-side state, guarded by tgtMu because applies may run on the
	// NIC agent, the thread serializer, or a Progress call. tgtCond wakes
	// local waiters (the collective-completion fast path). appliedAt is
	// the per-origin virtual time of the latest application, the stamp
	// Select's already-satisfied fast path reports. applyWaiters are
	// Select count-threshold waiters on the delivery counters, serviced
	// by noteApplied.
	tgtMu        sync.Mutex //rmalint:lockrank 10
	tgtCond      *sync.Cond
	lastApplied  vtime.Time
	applied      map[int]int64
	appliedAt    map[int]vtime.Time
	applyWaiters []*countWaiter
	probeWaiters []probeWaiter
	reorder      map[int]*reorderBuf
	lanes        map[int]*vtime.Clock
	atomicLane   vtime.Clock

	lock      *serializer.LockState
	applyQ    *serializer.ApplyQueue
	progQ     *serializer.ProgressQueue
	closeOnce sync.Once

	// Sharded apply engine state (nil/zero when Options.ApplyShards <= 1):
	// shardPool drains per-shard queues with bounded workers; shardMu
	// guards the designated-shard in-flight envelope and the per-shard
	// applied watermarks (see shard.go).
	shardPool *portals.ShardPool
	shardMu   sync.Mutex //rmalint:lockrank 30
	desigOpen int        // designated-shard ops in flight
	desigLo   int        // envelope: min byte offset covered by those ops
	desigHi   int        // envelope: one past the max byte offset

	amMu sync.Mutex
	am   map[uint64]AMHandler

	// repl is the buddy-replication state (see replication.go). The struct
	// always exists so the protocol handlers have somewhere to land parked
	// frames; EnableReplication flips it on for this rank's exposures.
	repl replState

	// depositHook, if set, observes every put/accumulate deposited into
	// this rank's memory (after application). Layers above use it for
	// diagnostics such as the MPI-2 overlapping-access checker.
	hookMu      sync.Mutex
	depositHook func(src int, handle uint64, disp, length int)

	// tracer, if set, records protocol events (issue/apply/probe/...);
	// a nil ring discards. Held in an atomic pointer so the per-operation
	// tr() check is one load, not a mutex, on the hot path.
	tracer atomic.Pointer[trace.Ring]

	// tel is the metrics registry installed by EnableTelemetry (nil until
	// then); lat caches the registry's latency histograms so the request
	// completion path does one atomic load, not a registry lookup.
	tel atomic.Pointer[telemetry.Registry]
	lat atomic.Pointer[latencyHists]

	// chk is the semantic checker's access observer (see checkerhook.go);
	// nil outside debugging runs, and the disabled hot path pays exactly
	// one atomic load per apply.
	chk atomic.Pointer[recorderCell]

	// evq is the completion-event queue installed by EnableEvents (nil
	// until then). Publication sites load it once; disabled runs pay one
	// atomic load and construct nothing.
	evq atomic.Pointer[CompletionQueue]

	// flight is the postmortem flight recorder installed by
	// EnableFlightRecorder (nil until then). Feed sites load it once;
	// the disabled path is one atomic load and records nothing.
	flight atomic.Pointer[telemetry.FlightRecorder]

	// Counters.
	OpsIssued       stats.Counter
	OpsApplied      stats.Counter
	AcksSent        stats.Counter
	Probes          stats.Counter
	HeldOps         stats.Counter // ordered ops buffered due to out-of-order arrival
	FenceStalls     stats.Counter // Order()-induced stalls before an op issue
	Batches         stats.Counter // aggregated messages sent
	BatchedOps      stats.Counter // operations that rode an aggregated message
	SingletonOps    stats.Counter // operations that paid their own wire message
	Notifies        stats.Counter // delivery-counter notifications received
	FastPaths       stats.Counter // Complete calls answered from counters, no probe
	CompleteCalls   stats.Counter // Complete invocations
	ProbeFallbacks  stats.Counter // Complete targets that needed the probe round-trip
	ShardBypass     stats.Counter // applies routed around the shard pool (serializer/serial path)
	ShardDesignated stats.Counter // applies routed through the designated shard
	ReplUpdates     stats.Counter // versioned replica updates shipped to the buddy
	ReplAcks        stats.Counter // replica acknowledgements answered as buddy
	Rebuilds        stats.Counter // replayed regions sent to a spare as promoter
	Pings           stats.Counter // liveness probes sent by the progress sentinel
}

// gosched yields to let agent and serializer goroutines run between
// progress polls.
func gosched() { gort.Gosched() }

// extKey is the Proc extension slot the engine lives in.
const extKey = "core.rma"

// Attach returns the rank's RMA engine, creating it (and registering the
// protocol handlers) on first use. Options are honoured only by the
// creating call; later calls return the existing engine unchanged.
func Attach(p *runtime.Proc, opts Options) *Engine {
	return p.Ext(extKey, func() any {
		e := &Engine{
			proc:           p,
			opts:           opts.withDefaults(),
			tmems:          make(map[uint64]*exposure),
			reqs:           make(map[uint64]*Request),
			targets:        make(map[int]*originTarget),
			comms:          make(map[uint64]Attr),
			rings:          make(map[int]*issueRing),
			confirmed:      make(map[int]int64),
			confirmedAt:    make(map[int]vtime.Time),
			pendingBatches: make(map[uint64]*pendingBatch),
			failedLinks:    make(map[int]error),
			failedRanks:    make(map[int]error),
			applied:        make(map[int]int64),
			appliedAt:      make(map[int]vtime.Time),
			reorder:        make(map[int]*reorderBuf),
			lanes:          make(map[int]*vtime.Clock),
			lock:           serializer.NewLockState(),
			am:             make(map[uint64]AMHandler),
		}
		e.tgtCond = sync.NewCond(&e.tgtMu)
		e.cmplCond = sync.NewCond(&e.cmplMu)
		e.repl.init()
		switch e.opts.Atomicity {
		case serializer.MechThread:
			e.applyQ = serializer.NewApplyQueue()
		case serializer.MechProgress:
			e.progQ = serializer.NewProgressQueue(e.opts.ProgressQuantum)
		}
		nic := p.NIC()
		if e.opts.ApplyShards > 1 {
			e.shardPool = nic.EnableSharding(e.opts.ApplyShards, e.opts.ApplyWorkers)
			e.shardPool.SetPanicHandler(e.onApplyPanic)
		}
		nic.RegisterHandler(kPut, e.handlePut)
		nic.RegisterHandler(kGet, e.handleGet)
		nic.RegisterHandler(kGetReply, e.handleGetReply)
		nic.RegisterHandler(kAck, e.handleAck)
		nic.RegisterHandler(kProbe, e.handleProbe)
		nic.RegisterHandler(kProbeAck, e.handleProbeAck)
		nic.RegisterHandler(kLockReq, e.handleLockReq)
		nic.RegisterHandler(kLockGrant, e.handleLockGrant)
		nic.RegisterHandler(kLockRel, e.handleLockRel)
		nic.RegisterHandler(kRMW, e.handleRMW)
		nic.RegisterHandler(kRMWReply, e.handleRMWReply)
		nic.RegisterHandler(kAM, e.handleAM)
		nic.RegisterHandler(kBatch, e.handleBatch)
		nic.RegisterHandler(kNotify, e.handleNotify)
		nic.RegisterHandler(kReplExpose, e.handleReplExpose)
		nic.RegisterHandler(kReplUpdate, e.handleReplUpdate)
		nic.RegisterHandler(kReplAck, e.handleReplAck)
		nic.RegisterHandler(kRebuild, e.handleRebuild)
		nic.RegisterHandler(kRebuildDone, e.handleRebuildDone)
		nic.RegisterHandler(kPing, e.handlePing)
		nic.SetLinkFailureHandler(e.onLinkFailed)
		p.World().Members().Subscribe(e.onRankDead)
		nic.SetRetransmitObserver(func(dst int, rseq uint64, attempt int, at vtime.Time) {
			if t := e.tr(); t != nil {
				t.RecordOpf(at, "retransmit", dst, rseq, "attempt=%d", attempt)
			}
			if f := e.flight.Load(); f != nil {
				f.Note(int64(at), "retransmit", dst, rseq, int64(attempt), nil)
			}
		})
		return e
	}).(*Engine)
}

// Attached returns the rank's RMA engine if one was created by Attach,
// without creating one. Cross-rank observers (timeline merges, the
// critical-path analyzer, rmatop) use it to inspect peers' tracers and
// health without attaching engines as a side effect.
func Attached(p *runtime.Proc) *Engine {
	if v, ok := p.ExtPeek(extKey); ok {
		return v.(*Engine)
	}
	return nil
}

// Proc returns the owning process.
func (e *Engine) Proc() *runtime.Proc { return e.proc }

// Mechanism returns the serializer mechanism backing the Atomic attribute.
func (e *Engine) Mechanism() serializer.Mechanism { return e.opts.Atomicity }

// SetCommAttrs sets default attributes for every operation this rank
// issues on comm (the paper's communicator-level attribute setting). The
// effective attributes of an operation are the union of the per-call
// attributes, the communicator default, and the engine default.
func (e *Engine) SetCommAttrs(comm *runtime.Comm, attrs Attr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.comms[comm.ID()] = attrs
}

// effectiveAttrs folds the per-call attributes with the communicator and
// engine defaults.
func (e *Engine) effectiveAttrs(comm *runtime.Comm, attrs Attr) Attr {
	e.mu.Lock()
	defer e.mu.Unlock()
	return attrs | e.comms[comm.ID()] | e.opts.DefaultAttrs
}

// target returns (creating if needed) the origin-side state for a world
// rank. Caller must hold e.mu.
func (e *Engine) targetLocked(world int) *originTarget {
	t := e.targets[world]
	if t == nil {
		t = &originTarget{}
		e.targets[world] = t
	}
	return t
}

// laneFor returns the per-origin apply lane for non-atomic updates.
// Caller must hold e.tgtMu.
func (e *Engine) laneForLocked(src int) *vtime.Clock {
	l := e.lanes[src]
	if l == nil {
		l = &vtime.Clock{}
		e.lanes[src] = l
	}
	return l
}

// applyCost models the virtual time of depositing n payload bytes.
func (e *Engine) applyCost(n int) time.Duration {
	return e.opts.ApplyOverhead + time.Duration(int64(n)*int64(e.opts.ApplyPerKB)/1024)
}

// Close shuts down the engine's serializer goroutine, if any, and wakes
// completion-queue waiters. World.Close invokes it for every attached
// engine; it is idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.applyQ != nil {
			e.applyQ.Close()
		}
		if q := e.evq.Load(); q != nil {
			q.close()
		}
		e.repl.mu.Lock()
		if e.repl.quit != nil {
			close(e.repl.quit)
			e.repl.quit = nil
		}
		e.repl.mu.Unlock()
	})
}

// Progress drains atomic operations deferred by the MechProgress
// serializer (a no-op under other mechanisms) and returns how many were
// applied. Every library entry point of the owning rank implicitly makes
// progress, mirroring MPI's progress rule.
func (e *Engine) Progress() int {
	if e.progQ == nil {
		return 0
	}
	return e.progQ.Progress(e.proc.Now())
}

// noteApplied is shared post-apply bookkeeping: count the op, wake
// satisfied completion probes and Select waiters, publish the EvDelivery
// event, and return the new cumulative applied count for src — the value
// every target→origin report carries back as the delivery counter of the
// notified-completion protocol. This is the watermark join: every applied
// operation, on every path (serial, sharded, serialized), funnels through
// here under tgtMu, so feeding events at this point gives the queue the
// exact counter movements Complete/Order observe.
func (e *Engine) noteApplied(src int, at vtime.Time) int64 {
	e.OpsApplied.Inc()
	e.tgtMu.Lock()
	e.applied[src]++
	count := e.applied[src]
	e.appliedAt[src] = vtime.Later(e.appliedAt[src], at)
	if at > e.lastApplied {
		e.lastApplied = at
	}
	var ready []probeWaiter
	rest := e.probeWaiters[:0]
	for _, w := range e.probeWaiters {
		if w.origin == src && count >= w.threshold {
			ready = append(ready, w)
		} else {
			rest = append(rest, w)
		}
	}
	e.probeWaiters = rest
	fired := serviceWaiters(&e.applyWaiters, src, count, at, nil)
	e.tgtCond.Broadcast()
	e.tgtMu.Unlock()
	closeWaiters(fired)
	if q := e.evq.Load(); q != nil {
		q.push(Event{Kind: EvDelivery, At: at, Rank: src, Count: count})
	}
	if f := e.flight.Load(); f != nil {
		f.Note(int64(at), "delivery", src, 0, count, nil)
	}
	for _, w := range ready {
		e.sendProbeAck(w, count, at)
	}
	return count
}

// waitAppliedFrom blocks until the total applied count from the given
// world ranks reaches expected, returning the virtual time of the last
// application. The collective-completion fast path uses it in place of
// per-origin probe round trips. If any of this rank's links has failed
// the wait aborts with the wrapped ErrLinkFailed — a degraded world
// cannot promise collective completion. Under the progress serializer the
// waiter must drain its own deferred queue (it is inside the library, so
// it IS the progress engine).
func (e *Engine) waitAppliedFrom(origins []int, expected int64) (vtime.Time, error) {
	for {
		if err := e.Err(); err != nil {
			return 0, err
		}
		e.tgtMu.Lock()
		var total int64
		for _, o := range origins {
			total += e.applied[o]
		}
		if total >= expected {
			at := e.lastApplied
			e.tgtMu.Unlock()
			return at, nil
		}
		if e.progQ == nil {
			e.tgtCond.Wait()
			e.tgtMu.Unlock()
			continue
		}
		e.tgtMu.Unlock()
		e.Progress()
		gosched()
	}
}

// SetTracer installs (or clears, with nil) a protocol event recorder.
func (e *Engine) SetTracer(r *trace.Ring) {
	e.tracer.Store(r)
}

// Tracer returns the installed protocol event recorder, if any.
func (e *Engine) Tracer() *trace.Ring {
	return e.tracer.Load()
}

// tr returns the current tracer (possibly nil). Hot paths must check for
// nil and skip the whole recording — formatting arguments for a discarded
// event still allocates.
func (e *Engine) tr() *trace.Ring {
	return e.tracer.Load()
}

// SetDepositHook installs (or clears, with nil) the deposit observer.
func (e *Engine) SetDepositHook(fn func(src int, handle uint64, disp, length int)) {
	e.hookMu.Lock()
	e.depositHook = fn
	e.hookMu.Unlock()
}

// notifyDeposit invokes the deposit hook, if any.
func (e *Engine) notifyDeposit(src int, handle uint64, disp, length int) {
	e.hookMu.Lock()
	fn := e.depositHook
	e.hookMu.Unlock()
	if fn != nil {
		fn(src, handle, disp, length)
	}
}

// sendReply ships a handler-generated protocol reply. A failed send can
// only mean the world is shutting down (the network refuses senders after
// close); the reply is dropped and counted rather than crashing the
// serializer or agent goroutine that carries it.
func (e *Engine) sendReply(at vtime.Time, m *simnet.Message) {
	if _, err := e.proc.NIC().Send(at, m); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
}

// sendReplyNIC is sendReply through the NIC-generated (hardware) path.
func (e *Engine) sendReplyNIC(at vtime.Time, m *simnet.Message) {
	if _, err := e.proc.NIC().SendNIC(at, m); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
}

// stickyFor returns the sticky failure that would keep operations to a
// world rank from ever completing: the engine-fatal apply fault, the
// target's confirmed death, or the target's failed link — in that order
// of severity.
func (e *Engine) stickyFor(world int) error {
	e.cmplMu.Lock()
	defer e.cmplMu.Unlock()
	if e.applyErr != nil {
		return e.applyErr
	}
	if err := e.failedRanks[world]; err != nil {
		return err
	}
	return e.failedLinks[world]
}

// Err reports the engine's sticky degradation, most severe tier first:
// the engine-fatal apply fault (this rank's own memory is untrustworthy),
// the first confirmed rank death (ErrRankFailed), then the first
// exhausted link (ErrLinkFailed). A non-nil Err does not stop operations
// toward live, reachable peers — degradation is per-peer; Err only lets
// callers notice it without tracking every request.
func (e *Engine) Err() error {
	e.cmplMu.Lock()
	defer e.cmplMu.Unlock()
	if e.applyErr != nil {
		return e.applyErr
	}
	if e.rankErr != nil {
		return e.rankErr
	}
	return e.linkErr
}

// onLinkFailed is the NIC's link-failure callback: the reliable-delivery
// relay exhausted its retry budget toward dst. Budget exhaustion is also
// the failure detector's trigger: the membership service checks the
// suspect against the simulation's RAS ground truth, and a confirmed
// death is handled by onRankDead (fanned out to every rank's engine)
// instead — the outstanding work then fails with ErrRankFailed, not
// ErrLinkFailed. Only an unconfirmed suspect (the link broke, the rank
// lives) takes the degradation path below: every outstanding request and
// pending batch targeting dst is failed with the wrapped ErrLinkFailed,
// and waiters on the confirmation counters are woken to observe it.
func (e *Engine) onLinkFailed(dst int, at vtime.Time, cause error) {
	if w := e.proc.World(); w != nil {
		// A rank that is itself dead keeps exhausting budgets toward live
		// peers (its outbound frames are blackholed); its reports must not
		// taint live ranks' liveness state, so only live reporters feed
		// the failure detector. The zombie still records the local link
		// failure below — that is what unblocks its own waiting calls.
		if !w.Net().RankDeadAt(e.proc.Rank(), at) && w.Members().Suspect(dst, at, cause) {
			return
		}
	}
	err := fmt.Errorf("core: %w", cause)

	e.cmplMu.Lock()
	_, dup := e.failedLinks[dst]
	e.cmplMu.Unlock()
	if dup {
		return
	}
	// The postmortem comes first, before the failure is recorded anywhere
	// a caller can observe it: no waiter returns the error before its dump
	// exists, and the dump's health shows the state the failure hit.
	if f := e.flight.Load(); f != nil {
		f.Note(int64(at), "link-failed", dst, 0, 0, err)
		f.AutoDump("link-failed", int64(at), err)
	}

	e.cmplMu.Lock()
	if _, dup := e.failedLinks[dst]; dup {
		e.cmplMu.Unlock()
		return
	}
	e.failedLinks[dst] = err
	if e.linkErr == nil {
		e.linkErr = err
	}
	var victims []*Request
	for id, pb := range e.pendingBatches {
		if pb.target != dst {
			continue
		}
		delete(e.pendingBatches, id)
		victims = append(victims, pb.reqs...)
	}
	failedWaiters := serviceWaiters(&e.confirmWaiters, dst, 0, at, err)
	e.cmplCond.Broadcast()
	e.cmplMu.Unlock()
	closeWaiters(failedWaiters)

	e.mu.Lock()
	for _, r := range e.reqs {
		if r.target == dst {
			victims = append(victims, r)
		}
	}
	e.mu.Unlock()
	for _, r := range victims {
		r.completeErr(at, err)
	}
	// Wake target-side waiters too (collective completion): they re-check
	// under waitConfirmed/waitAppliedFrom and observe the failure there.
	e.tgtMu.Lock()
	e.tgtCond.Broadcast()
	e.tgtMu.Unlock()
	if q := e.evq.Load(); q != nil {
		q.push(Event{Kind: EvFault, At: at, Rank: dst, Err: err})
	}
}

// onRankDead is the membership service's death callback, invoked exactly
// once per engine per confirmed death (from whichever goroutine's budget
// exhaustion confirmed it). It is onLinkFailed's rank-level sibling:
// outstanding work toward the dead rank fails in bounded time with the
// wrapped ErrRankFailed, counter waiters and Select cases observe the
// failure, EvFault carries the dead rank on the event surface, and the
// replication layer reacts (the dead rank's buddy rebuilds it onto a
// spare; a rank whose buddy died flushes its deferred completions). The
// flight recorder's postmortem comes before all of it.
func (e *Engine) onRankDead(dead int, at vtime.Time, cause error) {
	err := fmt.Errorf("core: rank %d declared dead (%v): %w", dead, cause, ErrRankFailed)

	// Replication settles its roles first so the postmortem names the
	// promotion; the dump is written before the death is recorded where a
	// caller can observe it (see onLinkFailed), and before the rebuild it
	// describes starts.
	replicate := e.replOnRankDead(dead, at)
	if f := e.flight.Load(); f != nil {
		f.Note(int64(at), "rank-death", dead, 0, 0, err)
		f.AutoDump("rank-death", int64(at), err)
	}

	e.cmplMu.Lock()
	e.failedRanks[dead] = err
	if e.rankErr == nil {
		e.rankErr = err
	}
	var victims []*Request
	for id, pb := range e.pendingBatches {
		if pb.target != dead {
			continue
		}
		delete(e.pendingBatches, id)
		victims = append(victims, pb.reqs...)
	}
	failedWaiters := serviceWaiters(&e.confirmWaiters, dead, 0, at, err)
	e.cmplCond.Broadcast()
	e.cmplMu.Unlock()
	closeWaiters(failedWaiters)

	e.mu.Lock()
	for _, r := range e.reqs {
		if r.target == dead {
			victims = append(victims, r)
		}
	}
	e.mu.Unlock()
	for _, r := range victims {
		r.completeErr(at, err)
	}
	e.tgtMu.Lock()
	e.tgtCond.Broadcast()
	e.tgtMu.Unlock()
	replicate()
	if q := e.evq.Load(); q != nil {
		q.push(Event{Kind: EvFault, At: at, Rank: dead, Err: err})
	}
}

// sendProbeAck answers a completion probe at virtual time at. The answer
// carries the cumulative applied count, so a probe also feeds the origin's
// confirmation counters.
func (e *Engine) sendProbeAck(w probeWaiter, count int64, at vtime.Time) {
	m := newMsg(w.origin, kProbeAck)
	m.Hdr[hReq] = w.reqID
	m.Hdr[hCount] = uint64(count)
	e.sendReply(at, m)
}
