package core

import (
	"fmt"

	"mpi3rma/internal/portals"
	"mpi3rma/internal/vtime"
)

// Sharded target-side apply engine.
//
// With Options.ApplyShards > 1 the exposed byte space is partitioned into
// fixed ranges of stride ceil(region/shards) per exposure, and each decoded
// incoming operation is routed — still on the NIC agent, so routing is
// single-threaded per target — to the shard its byte range falls in. The
// portals.ShardPool drains each shard strictly in routing order on at most
// one worker at a time, so operations that could conflict apply in the same
// order the serial engine would, while disjoint-range traffic (the Figure 2
// seven-writer workload with per-origin slots) spreads across workers.
//
// Three classes of operations cannot be pinned to one shard and route
// through the designated shard (shard 0) instead:
//
//   - range-spanning operations (their bytes cross a shard boundary),
//   - ordered operations (AttrOrdering promises cross-operation order the
//     per-shard FIFO alone cannot give), and
//   - operations overlapping a designated operation still in flight (the
//     envelope check below).
//
// A designated operation carries a ticket — the per-shard enqueue counts at
// routing time — and its worker refuses to run it until every shard has
// drained past the ticket, helping lagging shards along while it waits. It
// therefore observes everything routed before it, exactly like the serial
// engine. While designated operations are in flight the engine keeps a
// coarse [lo,hi) envelope of their bytes; later operations overlapping the
// envelope are routed behind them on the designated shard, which restores
// the pairwise ordering a shard-confined route would have lost.
//
// Atomic operations bypass the pool entirely and keep their configured
// serializer mechanism: atomicity is a cross-operation global promise the
// serializer already implements, and splitting it across workers would
// re-derive the serializer badly.
//
// The watermark join: every applied operation — sharded or not — still
// funnels through noteApplied under tgtMu, which is the cumulative
// delivery counter Complete/Order/fence and completion probes observe. The
// per-shard watermarks (ShardPool task counts) exist for telemetry and
// reconciliation: sum(shard.tasks.*) + shard.bypass == ops.applied.

// scheduleApplyRange routes one decoded target update with a known byte
// range [disp, disp+ext) inside exp's region. It falls back to the serial
// scheduleApply path when sharding is off, the operation is atomic, or the
// exposure is unknown (the deposit will fail and be counted by the fn).
func (e *Engine) scheduleApplyRange(src int, at vtime.Time, nbytes int, atomic, ordered bool, exp *exposure, disp, ext int, fn func(end vtime.Time)) {
	pool := e.shardPool
	if pool == nil || atomic || exp == nil {
		e.scheduleApply(src, at, nbytes, atomic, fn)
		return
	}
	n := pool.Shards()
	stride := (exp.region.Size + n - 1) / n
	if stride < 1 {
		stride = 1
	}
	if ext < 1 {
		ext = 1 // zero-extent ops still occupy a routing point
	}
	// Shard indices from the region-relative range; out-of-range
	// displacements (the deposit will reject them) are clamped so routing
	// never faults.
	s1 := clampShard(disp/stride, n)
	s2 := clampShard((disp+ext-1)/stride, n)
	base := exp.region.Offset + disp

	e.shardMu.Lock()
	overlapsDesig := e.desigOpen > 0 && base < e.desigHi && e.desigLo < base+ext
	designate := ordered || s1 != s2 || overlapsDesig
	if designate {
		if e.desigOpen == 0 {
			e.desigLo, e.desigHi = base, base+ext
		} else {
			if base < e.desigLo {
				e.desigLo = base
			}
			if base+ext > e.desigHi {
				e.desigHi = base + ext
			}
		}
		e.desigOpen++
	}
	e.shardMu.Unlock()

	cost := e.applyCost(nbytes)
	if designate {
		e.ShardDesignated.Inc()
		pool.Submit(0, portals.ShardTask{
			Ready: at,
			Cost:  cost,
			After: pool.Snapshot(),
			Run: func(end vtime.Time) {
				fn(end)
				e.shardMu.Lock()
				e.desigOpen--
				if e.desigOpen == 0 {
					e.desigLo, e.desigHi = 0, 0
				}
				e.shardMu.Unlock()
			},
		})
		return
	}
	pool.Submit(s1, portals.ShardTask{Ready: at, Cost: cost, Run: fn})
}

// clampShard pins a computed shard index into [0, n).
func clampShard(s, n int) int {
	if s < 0 {
		return 0
	}
	if s >= n {
		return n - 1
	}
	return s
}

// ShardPool returns the engine's sharded apply pool, or nil when the
// target applies serially.
func (e *Engine) ShardPool() *portals.ShardPool { return e.shardPool }

// onApplyPanic is the pool's panic handler: a worker recovered a panic
// from a deposit. The process survives, but this rank's memory may be
// half-written, so the whole engine is failed sticky.
func (e *Engine) onApplyPanic(shard int, recovered any) {
	e.failEngine(fmt.Errorf("core: %w: shard %d worker: %v", ErrApplyFault, shard, recovered))
}

// failEngine records an engine-fatal error: every outstanding request,
// pending batch, and Select waiter fails with it, and completion waiters
// are woken so Complete/Order/fence observe it instead of hanging on
// counters that will never advance.
func (e *Engine) failEngine(err error) {
	at := e.proc.Now()
	e.cmplMu.Lock()
	if e.applyErr != nil {
		e.cmplMu.Unlock()
		return
	}
	e.applyErr = err
	var victims []*Request
	for id, pb := range e.pendingBatches {
		delete(e.pendingBatches, id)
		victims = append(victims, pb.reqs...)
	}
	failedConfirm := serviceWaiters(&e.confirmWaiters, -1, 0, at, err)
	e.cmplCond.Broadcast()
	e.cmplMu.Unlock()
	closeWaiters(failedConfirm)

	e.mu.Lock()
	for _, r := range e.reqs {
		victims = append(victims, r)
	}
	e.mu.Unlock()
	for _, r := range victims {
		r.completeErr(at, err)
	}
	e.tgtMu.Lock()
	failedApply := serviceWaiters(&e.applyWaiters, -1, 0, at, err)
	e.tgtCond.Broadcast()
	e.tgtMu.Unlock()
	closeWaiters(failedApply)
	if q := e.evq.Load(); q != nil {
		q.push(Event{Kind: EvFault, At: at, Rank: AllRanks, Err: err})
	}
	if f := e.flight.Load(); f != nil {
		f.Note(int64(at), "apply-fault", AllRanks, 0, 0, err)
		f.AutoDump("apply-fault", int64(at), nil)
	}
}
