package core

import (
	"fmt"
	"sync"
	"time"

	"mpi3rma/internal/memsim"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/vtime"
)

// Buddy replication and rebuild (DESIGN.md §14).
//
// With replication enabled, every region a rank exposes is mirrored
// in-band to its buddy — rank (r+1) mod n over the compute ranks — so a
// single rank death loses nothing: the buddy holds a byte-exact replica
// and replays it onto a spare.
//
// The protocol is deliberately minimal:
//
//   - Expose sends kReplExpose (handle, size) plus an initial full
//     snapshot, so a region exposed with prior contents starts mirrored.
//   - Every mutating apply (put, accumulate, RMW, batch member) snapshots
//     the bytes it touched and ships them as kReplUpdate stamped with a
//     per-handle version drawn under the replication mutex. Snapshots are
//     taken after the deposit, and version order equals snapshot order,
//     so the highest version covering a byte always carries that byte's
//     final value: the buddy applies updates in contiguous version order
//     and converges without any extra barrier.
//   - The operation's completion bookkeeping — finishApply with its ack
//     or notification, an RMW's value reply, a batch member's counter
//     bump — is DEFERRED until the buddy's cumulative kReplAck covers the
//     update's version. Completion therefore implies replica durability:
//     any operation an origin saw complete survives the primary's death.
//
// When the membership service confirms a death, the dead rank's buddy
// promotes: it binds a spare, replays each replica as one kRebuild frame,
// and finishes with kRebuildDone carrying the frame count (the frames may
// arrive in any order). The spare exposes each region at the dead rank's
// original handle, seeds its own version counters from the replayed
// versions, and — once every frame has landed — reports RebuildComplete
// and starts replicating back to the promoter, which already holds the
// replica at exactly the right version: continued protection costs zero
// extra transfer. A rank whose buddy died flushes its deferred
// completions (no replica can be confirmed while the buddy is down),
// degrades to direct completion, and re-syncs a full snapshot to the
// spare once the rebuild finishes.
//
// Metadata is O(1) per rank per exposure: a version counter and a byte
// buffer on the buddy — no per-operation log survives the ack.

// replKey names one replica held on behalf of another rank.
type replKey struct {
	owner  int
	handle uint64
}

// replUpd is one out-of-order update held until its predecessors arrive.
type replUpd struct {
	disp int
	data []byte
}

// replica is the buddy-side mirror of one exposed region.
type replica struct {
	size int
	buf  []byte
	next uint64 // next version to apply (versions start at 1)
	held map[uint64]replUpd
}

// apply lands one update, growing the buffer for updates that outrun the
// kReplExpose announcement on an unordered wire.
func (r *replica) apply(disp int, data []byte) {
	if disp < 0 {
		return
	}
	if need := disp + len(data); need > len(r.buf) {
		r.buf = append(r.buf, make([]byte, need-len(r.buf))...)
	}
	copy(r.buf[disp:], data)
}

// deferredFin is one operation's completion bookkeeping awaiting the
// buddy's acknowledgement of the update that carries its bytes.
type deferredFin struct {
	version uint64
	end     vtime.Time
	fin     func(end vtime.Time)
}

// replState is one engine's replication bookkeeping: primary-side version
// counters and deferred completions for its own exposures, buddy-side
// replicas it holds for its ward, and spare-side rebuild progress. fins
// are never run with mu held (they take the engine's completion locks).
type replState struct {
	mu      sync.Mutex //rmalint:lockrank 35
	enabled bool
	buddy   int  // rank mirroring this rank's exposures (-1 = none yet)
	down    bool // buddy confirmed dead, successor not yet rebuilt

	// Primary side, keyed by this rank's exposure handle.
	sizes    map[uint64]int
	version  map[uint64]uint64
	acked    map[uint64]uint64
	deferred map[uint64][]deferredFin // version-ordered

	// Buddy side.
	replicas map[replKey]*replica

	// Spare side: rebuild frames received / expected per dead rank
	// (expected is set by kRebuildDone, which may arrive first).
	rebuildGot  map[int]int
	rebuildNeed map[int]int

	// quit stops the progress sentinel goroutine (started by the first
	// EnableReplication, closed by Engine.Close).
	quit chan struct{}
}

func (st *replState) init() {
	st.buddy = -1
	st.sizes = make(map[uint64]int)
	st.version = make(map[uint64]uint64)
	st.acked = make(map[uint64]uint64)
	st.deferred = make(map[uint64][]deferredFin)
	st.replicas = make(map[replKey]*replica)
	st.rebuildGot = make(map[int]int)
	st.rebuildNeed = make(map[int]int)
}

// replicaLocked returns (creating if needed) the replica for key. Caller
// holds st.mu.
func (st *replState) replicaLocked(key replKey) *replica {
	r := st.replicas[key]
	if r == nil {
		r = &replica{next: 1, held: make(map[uint64]replUpd)}
		st.replicas[key] = r
	}
	return r
}

// EnableReplication turns on buddy replication for regions this rank
// exposes from now on: each is mirrored to rank (me+1) mod n and every
// mutating operation completes only once the buddy acknowledged its
// bytes. Enable it on every compute rank (it is SPMD, like the rest of
// the engine) and before exposing the regions that need protection. On a
// spare it arms the state only; the buddy binding arrives with the
// rebuild. Replication is a property of the engine for its lifetime —
// there is no disable.
func (e *Engine) EnableReplication() error {
	n := e.proc.Size()
	if n < 2 {
		return fmt.Errorf("core: replication requires at least 2 compute ranks, have %d", n)
	}
	st := &e.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	st.enabled = true
	if !e.proc.IsSpare() {
		st.buddy = (e.proc.Rank() + 1) % n
	}
	if st.quit == nil {
		st.quit = make(chan struct{})
		go e.progressSentinel(st.quit)
	}
	return nil
}

// ReplicationEnabled reports whether EnableReplication was called.
func (e *Engine) ReplicationEnabled() bool {
	st := &e.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.enabled
}

// Buddy returns the rank currently mirroring this rank's exposures, or
// -1 when replication is off or the buddy is down awaiting a rebuild.
func (e *Engine) Buddy() (int, bool) {
	st := &e.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.enabled || st.down || st.buddy < 0 {
		return -1, false
	}
	return st.buddy, true
}

// replOnExpose mirrors a new exposure to the buddy: the announcement and
// an initial full snapshot (version 1), so regions exposed with prior
// contents start protected. Called by Expose after the handle is
// published, without the engine mutex held.
func (e *Engine) replOnExpose(h uint64, region memsim.Region) {
	st := &e.repl
	st.mu.Lock()
	if !st.enabled {
		st.mu.Unlock()
		return
	}
	st.sizes[h] = region.Size
	buddy := st.buddy
	if buddy < 0 || st.down {
		// Tracked for the post-rebuild resync, but nothing to send now.
		st.mu.Unlock()
		return
	}
	buf := make([]byte, region.Size)
	if err := e.proc.Mem().RemoteRead(region.Offset, buf); err != nil {
		st.mu.Unlock()
		return
	}
	st.version[h]++
	v := st.version[h]
	st.mu.Unlock()
	e.replSendExpose(buddy, h, region.Size)
	e.replSendUpdate(buddy, h, 0, v, buf, e.proc.Now())
}

// replSendExpose ships one kReplExpose announcement.
func (e *Engine) replSendExpose(buddy int, h uint64, size int) {
	m := newMsg(buddy, kReplExpose)
	m.Hdr[hHandle] = h
	m.Hdr[hCount] = uint64(size)
	e.sendReply(e.proc.Now(), m)
}

// replSendUpdate ships one versioned snapshot.
func (e *Engine) replSendUpdate(buddy int, h uint64, disp int, v uint64, data []byte, at vtime.Time) {
	m := newMsg(buddy, kReplUpdate)
	m.Hdr[hHandle] = h
	m.Hdr[hDisp] = uint64(disp)
	m.Hdr[hCount] = v
	m.Payload = data
	e.ReplUpdates.Inc()
	e.sendReply(at, m)
}

// replicate is the deferral point of every mutating apply: fin is the
// operation's completion bookkeeping (finishApply plus any reply). For an
// unreplicated exposure — replication off, buddy down, or a handle
// exposed before EnableReplication — fin runs immediately and the apply
// keeps its pre-replication semantics. Otherwise the freshly deposited
// bytes are snapshotted under the replication mutex (so version order
// equals snapshot order), shipped to the buddy, and fin runs only when
// the buddy's cumulative acknowledgement covers the drawn version.
func (e *Engine) replicate(h uint64, exp *exposure, disp, length int, end vtime.Time, fin func(end vtime.Time)) {
	st := &e.repl
	st.mu.Lock()
	if !st.enabled || st.down || st.buddy < 0 {
		st.mu.Unlock()
		fin(end)
		return
	}
	if _, tracked := st.sizes[h]; !tracked {
		st.mu.Unlock()
		fin(end)
		return
	}
	if disp < 0 || length <= 0 || disp+length > exp.region.Size {
		// The deposit rejected (or clipped to nothing); nothing mutated.
		st.mu.Unlock()
		fin(end)
		return
	}
	buf := make([]byte, length)
	if err := e.proc.Mem().RemoteRead(exp.region.Offset+disp, buf); err != nil {
		st.mu.Unlock()
		fin(end)
		return
	}
	st.version[h]++
	v := st.version[h]
	buddy := st.buddy
	st.deferred[h] = append(st.deferred[h], deferredFin{version: v, end: end, fin: fin})
	st.mu.Unlock()
	e.replSendUpdate(buddy, h, disp, v, buf, end)
}

// handleReplExpose creates (or sizes) the replica for a ward's exposure.
func (e *Engine) handleReplExpose(m *simnet.Message, at vtime.Time) {
	st := &e.repl
	st.mu.Lock()
	r := st.replicaLocked(replKey{owner: m.Src, handle: m.Hdr[hHandle]})
	if size := int(m.Hdr[hCount]); size > r.size {
		r.size = size
		if size > len(r.buf) {
			r.buf = append(r.buf, make([]byte, size-len(r.buf))...)
		}
	}
	st.mu.Unlock()
}

// handleReplUpdate lands one versioned snapshot on the replica, applying
// in contiguous version order (out-of-order arrivals are held), and
// answers with the cumulative replicated version.
func (e *Engine) handleReplUpdate(m *simnet.Message, at vtime.Time) {
	st := &e.repl
	key := replKey{owner: m.Src, handle: m.Hdr[hHandle]}
	v := m.Hdr[hCount]
	disp := int(m.Hdr[hDisp])
	st.mu.Lock()
	r := st.replicaLocked(key)
	if v == r.next {
		r.apply(disp, m.Payload)
		r.next++
		for {
			u, ok := r.held[r.next]
			if !ok {
				break
			}
			delete(r.held, r.next)
			r.apply(u.disp, u.data)
			r.next++
		}
	} else if v > r.next {
		r.held[v] = replUpd{disp: disp, data: append([]byte(nil), m.Payload...)}
	}
	ackv := r.next - 1
	st.mu.Unlock()
	ack := newMsg(m.Src, kReplAck)
	ack.Hdr[hHandle] = m.Hdr[hHandle]
	ack.Hdr[hCount] = ackv
	e.ReplAcks.Inc()
	e.sendReply(at, ack)
}

// handleReplAck releases the deferred completions of every update the
// buddy's cumulative acknowledgement now covers, in version order.
func (e *Engine) handleReplAck(m *simnet.Message, at vtime.Time) {
	st := &e.repl
	h := m.Hdr[hHandle]
	v := m.Hdr[hCount]
	st.mu.Lock()
	if v > st.acked[h] {
		st.acked[h] = v
	}
	limit := st.acked[h]
	q := st.deferred[h]
	n := 0
	for n < len(q) && q[n].version <= limit {
		n++
	}
	ready := q[:n:n]
	st.deferred[h] = q[n:]
	st.mu.Unlock()
	for _, d := range ready {
		d.fin(vtime.Later(d.end, at))
	}
}

// replOnRankDead is the replication layer's reaction to a confirmed
// death, in two halves around onRankDead's postmortem. It settles this
// engine's roles and records them in the flight recorder, so the dump
// names them, and returns the half that acts on them — flushing deferred
// completions and starting the rebuild — for onRankDead to run once the
// death is recorded. Two independent roles may apply:
//
//   - Promoter: this rank holds replicas owned by the dead rank. It binds
//     a spare and replays every replica onto it.
//   - Orphan: the dead rank was this rank's buddy. Deferred completions
//     can never be acknowledged; they are flushed (run immediately) and
//     replication degrades until the spare finishes rebuilding, then a
//     full resync re-arms it.
func (e *Engine) replOnRankDead(dead int, at vtime.Time) (act func()) {
	st := &e.repl
	st.mu.Lock()
	var mine []replKey
	for key := range st.replicas {
		if key.owner == dead {
			mine = append(mine, key)
		}
	}
	orphaned := st.enabled && !st.down && st.buddy == dead
	var flushed []deferredFin
	if orphaned {
		st.down = true
		for h, q := range st.deferred {
			flushed = append(flushed, q...)
			delete(st.deferred, h)
		}
	}
	st.mu.Unlock()

	if orphaned {
		if f := e.flight.Load(); f != nil {
			f.Note(int64(at), "buddy-lost", dead, 0, int64(len(flushed)), nil)
		}
	}
	var rebuild []*simnet.Message
	if len(mine) > 0 {
		rebuild = e.replPromote(dead, mine, at)
	}
	return func() {
		// Flush first: completion must not wait on a dead buddy.
		for _, d := range flushed {
			d.fin(vtime.Later(d.end, at))
		}
		if orphaned {
			go e.replRebind(dead)
		}
		for _, m := range rebuild {
			e.sendReply(e.proc.Now(), m)
		}
	}
}

// replPromote binds a spare for the dead rank's replicas and builds their
// replay: one kRebuild frame per replica, then kRebuildDone carrying the
// frame count (the wire may reorder them; the spare counts). The replicas
// are rekeyed to the spare, which resumes replicating to this rank at
// exactly the version the replica already holds — continued protection
// with zero extra transfer. The promotion is recorded in the flight
// recorder's rank-death report before onRankDead dumps the postmortem;
// the frames are sent after it.
func (e *Engine) replPromote(dead int, mine []replKey, at vtime.Time) []*simnet.Message {
	members := e.proc.World().Members()
	spare, ok := members.AllocSpare(dead)
	if !ok {
		if f := e.flight.Load(); f != nil {
			f.Note(int64(at), "no-spare", dead, 0, int64(len(mine)), nil)
		}
		return nil
	}
	st := &e.repl
	var maxV uint64
	frames := make([]*simnet.Message, 0, len(mine)+1)
	st.mu.Lock()
	for _, key := range mine {
		r := st.replicas[key]
		if r == nil {
			continue
		}
		delete(st.replicas, key)
		st.replicas[replKey{owner: spare, handle: key.handle}] = r
		if r.size > len(r.buf) {
			r.buf = append(r.buf, make([]byte, r.size-len(r.buf))...)
		}
		if r.next-1 > maxV {
			maxV = r.next - 1
		}
		m := newMsg(spare, kRebuild)
		m.Hdr[hHandle] = key.handle
		m.Hdr[hCount] = r.next - 1
		m.Hdr[hDisp] = uint64(dead)
		m.Payload = append([]byte(nil), r.buf...)
		e.Rebuilds.Inc()
		frames = append(frames, m)
	}
	st.mu.Unlock()
	done := newMsg(spare, kRebuildDone)
	done.Hdr[hHandle] = uint64(len(mine))
	done.Hdr[hDisp] = uint64(dead)
	frames = append(frames, done)
	if f := e.flight.Load(); f != nil {
		f.Note(int64(at), "replica-promote", dead, uint64(spare), int64(len(mine)), nil)
		f.SetRankDeath(telemetry.RankDeathInfo{
			Dead:        dead,
			Buddy:       e.proc.Rank(),
			Spare:       spare,
			Regions:     len(mine),
			FromVersion: 1,
			ToVersion:   maxV,
		})
	}
	return frames
}

// replRebind runs on its own goroutine after this rank's buddy died: it
// waits for the spare to finish rebuilding the buddy, then re-arms
// replication toward it with a full resync (announcement plus full
// snapshot per tracked handle, each drawing the next version). Operations
// applied while the buddy was down completed unreplicated; the full
// snapshot, taken after their deposits, covers every one of them.
func (e *Engine) replRebind(dead int) {
	spare, err := e.proc.World().Members().AwaitRebuilt(dead)
	if err != nil {
		return // no spare: replication stays degraded
	}
	st := &e.repl
	st.mu.Lock()
	st.buddy = spare
	st.down = false
	// The successor's replicas of this rank start fresh (contiguous
	// version order from 1), so the update stream must restart with them:
	// carrying the old counters forward would make the spare park the
	// first post-rebind update as a far-future out-of-order arrival and
	// acknowledge nothing, wedging every deferred completion behind it.
	// Reset under the same critical section that re-arms the buddy, so no
	// concurrent apply can draw a pre-reset version toward the spare.
	for h := range st.version {
		delete(st.version, h)
	}
	for h := range st.acked {
		delete(st.acked, h)
	}
	handles := make(map[uint64]int, len(st.sizes))
	for h, sz := range st.sizes {
		handles[h] = sz
	}
	st.mu.Unlock()
	for h, sz := range handles {
		exp := e.lookupExposure(h)
		if exp == nil {
			continue
		}
		e.replSendExpose(spare, h, sz)
		st.mu.Lock()
		buf := make([]byte, sz)
		if err := e.proc.Mem().RemoteRead(exp.region.Offset, buf); err != nil {
			st.mu.Unlock()
			continue
		}
		st.version[h]++
		v := st.version[h]
		st.mu.Unlock()
		e.replSendUpdate(spare, h, 0, v, buf, e.proc.Now())
	}
	if f := e.flight.Load(); f != nil {
		f.Note(int64(e.proc.Now()), "buddy-rebound", spare, 0, int64(len(handles)), nil)
	}
}

// handleRebuild lands one replayed region on a spare: the region is
// exposed at the dead rank's original handle (so origins can re-target
// the successor with an unchanged descriptor), the replica bytes are
// deposited, and the spare's own version counter resumes from the
// replayed version — its future updates continue the stream the promoter
// already holds.
func (e *Engine) handleRebuild(m *simnet.Message, at vtime.Time) {
	dead := int(int64(m.Hdr[hDisp]))
	h := m.Hdr[hHandle]
	v := m.Hdr[hCount]
	region := e.exposeAt(h, len(m.Payload))
	if err := e.proc.Mem().RemoteWrite(region.Offset, m.Payload); err != nil {
		e.proc.NIC().BadReq.Inc()
	}
	st := &e.repl
	st.mu.Lock()
	st.enabled = true
	st.sizes[h] = len(m.Payload)
	st.version[h] = v
	st.acked[h] = v
	st.rebuildGot[dead]++
	fin := st.rebuildNeed[dead] > 0 && st.rebuildGot[dead] >= st.rebuildNeed[dead]
	st.mu.Unlock()
	if f := e.flight.Load(); f != nil {
		f.Note(int64(at), "rebuild-frame", dead, h, int64(len(m.Payload)), nil)
	}
	if fin {
		e.finishRebuild(dead, m.Src, at)
	}
}

// handleRebuildDone records how many frames the replay comprises and, if
// they all already landed (the wire may reorder), finishes the rebuild.
func (e *Engine) handleRebuildDone(m *simnet.Message, at vtime.Time) {
	dead := int(int64(m.Hdr[hDisp]))
	need := int(m.Hdr[hHandle])
	st := &e.repl
	st.mu.Lock()
	st.rebuildNeed[dead] = need
	fin := st.rebuildGot[dead] >= need
	st.mu.Unlock()
	if fin {
		e.finishRebuild(dead, m.Src, at)
	}
}

// finishRebuild arms the spare as a full replica-protected primary —
// its buddy is the promoter, which holds every replayed region at
// exactly the replayed version — and reports RebuildComplete so waiting
// ranks (AwaitRebuilt) learn the successor is serving.
func (e *Engine) finishRebuild(dead, promoter int, at vtime.Time) {
	st := &e.repl
	st.mu.Lock()
	st.enabled = true
	st.buddy = promoter
	st.down = false
	delete(st.rebuildGot, dead)
	delete(st.rebuildNeed, dead)
	st.mu.Unlock()
	e.proc.World().Members().RebuildComplete(dead, e.proc.Rank())
	if f := e.flight.Load(); f != nil {
		f.Note(int64(at), "rebuild-done", dead, uint64(promoter), 0, nil)
	}
}

// The progress sentinel (the failure detector's second trigger).
//
// The reliable-delivery relay retransmits frames until the receiving NIC
// acknowledges them, so toward a LIVE peer every engine-level reply —
// a kReplAck, a probe answer, a get reply — is eventually delivered and
// the only failure signal needed is the relay's retry-budget exhaustion.
// A dying peer breaks that reasoning: it can relay-ack a frame (the NIC
// admitted the bytes) and then be blackholed before the engine-level
// reply goes out. The sender is now waiting on an acknowledgement that
// will never come while owing the relay nothing — no frame in flight, no
// retransmission, no budget exhaustion, no detection. Both ends of the
// replication protocol can wedge this way: an orphan whose deferred
// completions await a dead buddy's kReplAck, and an origin whose
// completion probe was parked at a target that died before its deferred
// applies were acknowledged.
//
// The sentinel closes the loop end-to-end: a per-engine ticker watches
// every surface that waits on a remote engine — outstanding requests,
// confirmation-counter waiters, and unacknowledged replication
// deferrals — and when one makes no progress across consecutive ticks it
// sends a kPing to the stalled peer through the relay. The ping carries
// no semantics; it is bait. A live peer's NIC relay-acks it and nothing
// else happens (whatever reply is owed will arrive by retransmission).
// A dead peer blackholes it, the relay exhausts the ping's retry budget,
// and the ordinary detection path — onLinkFailed, membership Suspect
// against RAS ground truth, onRankDead fan-out — fails the stalled work
// with ErrRankFailed in bounded time.
//
// The ticker runs on real time, like the relay's retransmitter: virtual
// time is advanced by the very completions that are failing to happen,
// so a virtual-time watchdog could never fire. Pings perturb nothing a
// run's results depend on (no payload, no handler side effects), and on
// a world without the relay (no fault plan) the sentinel stays silent —
// detection is impossible there and the pings would be pure noise.

const (
	// sentinelTick is the sentinel's real-time sampling period.
	sentinelTick = 25 * time.Millisecond
	// sentinelStrikes is how many consecutive unchanged samples a target
	// must accumulate before it is pinged (one sample can catch a wait
	// mid-setup; two means a full tick passed with zero progress).
	sentinelStrikes = 2
	// sentinelPingEvery rate-limits pings per stalled target; one ping is
	// enough to arm the relay's detector (~the retry budget, well under a
	// second, to a verdict), re-pinging just keeps a long stall honest.
	sentinelPingEvery = 250 * time.Millisecond
)

// sentinelWatch is the sentinel's per-target memory between ticks.
type sentinelWatch struct {
	mark     uint64
	strikes  int
	lastPing time.Time
}

// progressSentinel runs until quit closes, sampling the engine's remote
// waits each tick and pinging peers that stall.
func (e *Engine) progressSentinel(quit chan struct{}) {
	t := time.NewTicker(sentinelTick)
	defer t.Stop()
	watch := make(map[int]*sentinelWatch)
	for {
		select {
		case <-quit:
			return
		case now := <-t.C:
			e.sentinelSweep(watch, now)
		}
	}
}

// sentinelMarks samples every wait-on-a-remote-engine surface, returning
// a progress marker per awaited world rank. Equal marks across ticks
// mean the same waits saw no movement; any completion, acknowledgement
// or new registration changes the marker. The mix is order-independent
// (the maps iterate randomly) and collisions merely delay a ping by one
// tick.
func (e *Engine) sentinelMarks() map[int]uint64 {
	marks := make(map[int]uint64)
	mix := func(rank int, v uint64) {
		marks[rank] += v*2654435761 + 1
	}
	st := &e.repl
	st.mu.Lock()
	if st.enabled && !st.down && st.buddy >= 0 {
		for h, q := range st.deferred {
			if len(q) > 0 {
				mix(st.buddy, uint64(len(q))<<40^st.acked[h]<<8^h)
			}
		}
	}
	st.mu.Unlock()
	e.mu.Lock()
	for id, r := range e.reqs {
		mix(r.target, id)
	}
	e.mu.Unlock()
	e.cmplMu.Lock()
	for _, w := range e.confirmWaiters {
		if !w.abandoned && !w.fired {
			mix(w.rank, uint64(w.threshold)<<16^uint64(e.confirmed[w.rank]))
		}
	}
	e.cmplMu.Unlock()
	return marks
}

// sentinelSweep is one tick: compare this sample against the last, ping
// targets stalled long enough, and forget targets no longer waited on
// (or already sticky-failed — their waiters were unwound by the failure).
func (e *Engine) sentinelSweep(watch map[int]*sentinelWatch, now time.Time) {
	if !e.proc.NIC().Reliable() {
		return
	}
	marks := e.sentinelMarks()
	for rank := range watch {
		if _, waiting := marks[rank]; !waiting {
			delete(watch, rank)
		}
	}
	me := e.proc.Rank()
	for rank, mark := range marks {
		if rank == me || e.stickyFor(rank) != nil {
			delete(watch, rank)
			continue
		}
		w := watch[rank]
		if w == nil || w.mark != mark {
			watch[rank] = &sentinelWatch{mark: mark}
			continue
		}
		w.strikes++
		if w.strikes < sentinelStrikes {
			continue
		}
		if !w.lastPing.IsZero() && now.Sub(w.lastPing) < sentinelPingEvery {
			continue
		}
		w.lastPing = now
		e.Pings.Inc()
		if f := e.flight.Load(); f != nil {
			f.Note(int64(e.proc.Now()), "sentinel-ping", rank, 0, int64(w.strikes), nil)
		}
		e.sendReplyNIC(e.proc.Now(), newMsg(rank, kPing))
	}
}

// handlePing is the liveness probe's target side: the frame's admission
// (and the relay acknowledgement it triggered) already answered the
// question, so there is deliberately nothing to do.
func (e *Engine) handlePing(m *simnet.Message, at vtime.Time) {}

// exposeAt installs an exposure under a fixed handle — the spare-side
// counterpart of Expose, which lets a rebuilt region keep the dead rank's
// handle so existing TargetMem descriptors stay valid with only the Owner
// re-pointed. Idempotent per handle; the sequence counter is advanced
// past the handle so later local Expose calls cannot collide with it.
func (e *Engine) exposeAt(h uint64, size int) memsim.Region {
	e.mu.Lock()
	if ex, ok := e.tmems[h]; ok {
		e.mu.Unlock()
		return ex.region
	}
	e.mu.Unlock()
	region := e.proc.Alloc(size)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ex, ok := e.tmems[h]; ok {
		return ex.region
	}
	e.tmems[h] = &exposure{region: region}
	if h > e.tmemSeq {
		e.tmemSeq = h
	}
	return region
}
