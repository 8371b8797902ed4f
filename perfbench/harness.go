package main

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	simrt "mpi3rma/internal/runtime"
	"mpi3rma/internal/telemetry"
	"mpi3rma/rma"
)

// The end-to-end phase is split over timedWorlds worlds, so one run
// averages over world-level host effects (heap layout, scheduling) and
// setup_s is a median of at least that many set-ups. Set-up alone is
// repeated further, up to maxSetups, while all set-ups so far took less
// than setupBudget.
const (
	timedWorlds = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// traceRingCap is the per-rank protocol event ring of the traced phase;
// the critical path is read from the most recent events it holds.
const traceRingCap = 1 << 14

// workload is one closed-loop input set.
type workload struct {
	name     string
	shape    string // printed with every result
	ranks    int
	perRound int // operations (put-storm: windows) each active rank issues per round
	// open returns a rank's session options (nil: none); a rank's first
	// Open fixes them.
	open  func(rank int) []rma.SessionOption
	setup func(e *rankEnv) rankLoop
	// mix returns the (count, datatype) transfers the workload issued,
	// weighted by the layer counters of a phase, for the datatype probe.
	mix func(c counts, ops int64) []xfer
}

// rankEnv is what a rank's workload code sees.
type rankEnv struct {
	p    *simrt.Proc
	s    *rma.Session
	seed int64
	rec  *recorder // nil when untraced
}

// rankLoop is one rank's share of a workload after set-up.
type rankLoop interface {
	// round runs this rank's share of one closed-loop round.
	round(n int, t *tally)
	// verify checks the round's results; every rank calls it, so it may
	// use collectives.
	verify(t *tally)
	// counts returns this rank's cumulative layer counters.
	counts() counts
}

// tally is one rank's running outcome of a phase.
type tally struct {
	ops, attempted, failed int64
	lat                    []int64 // modelled latency per sample, ns
}

// counts are layer counters read through the public Stats accessors.
type counts struct {
	gets, puts, probeSteps, lockRetries, casRaces int64
	contention                                    []int64 // per dht stripe
	enqueues, dequeues, polls                     int64
}

func (c counts) sub(o counts) counts {
	d := counts{
		gets: c.gets - o.gets, puts: c.puts - o.puts,
		probeSteps: c.probeSteps - o.probeSteps, lockRetries: c.lockRetries - o.lockRetries,
		casRaces: c.casRaces - o.casRaces,
		enqueues: c.enqueues - o.enqueues, dequeues: c.dequeues - o.dequeues, polls: c.polls - o.polls,
	}
	for i, v := range c.contention {
		if i < len(o.contention) {
			v -= o.contention[i]
		}
		d.contention = append(d.contention, v)
	}
	return d
}

func (c counts) add(o counts) counts {
	s := counts{
		gets: c.gets + o.gets, puts: c.puts + o.puts,
		probeSteps: c.probeSteps + o.probeSteps, lockRetries: c.lockRetries + o.lockRetries,
		casRaces: c.casRaces + o.casRaces,
		enqueues: c.enqueues + o.enqueues, dequeues: c.dequeues + o.dequeues, polls: c.polls + o.polls,
	}
	s.contention = make([]int64, max(len(c.contention), len(o.contention)))
	for i := range s.contention {
		if i < len(c.contention) {
			s.contention[i] += c.contention[i]
		}
		if i < len(o.contention) {
			s.contention[i] += o.contention[i]
		}
	}
	return s
}

// roundStat is one closed-loop round: host wall time, completed
// operations, and the slowest rank's modelled loop time.
type roundStat struct {
	wall  time.Duration
	ops   int64
	model int64 // ns of virtual time
}

// phase is one timed stretch of closed-loop rounds, split over one or
// more worlds; each world runs one segment of it.
type phase struct {
	budget     time.Duration // per world
	minSamples int           // the last world runs on until this many latency samples exist
	traced     bool

	// Accumulated over the segments. Rank 0 writes them while a world
	// runs; they are read after its Run returns.
	rounds        []roundStat
	worldRates    []float64 // per world: median sim_ops_per_s of its rounds
	wall          time.Duration
	mallocs       uint64
	gcs           int64
	pauseNs       uint64
	msgs, bytes   int64
	logicalOps    int64
	tallies       []tally  // per rank
	before, after []counts // per rank, this segment
	layerCounts   counts
	ops, failed   int64
	attempted     int64
	profile       bytes.Buffer
	profileErr    error
	crit          *telemetry.CriticalPathReport
	critErr       error

	// This segment.
	floor int64
	start time.Time
	ms0   goruntime.MemStats
	net0  [3]int64
	first int // index of the segment's first round
}

// over reports whether rank 0 should end the segment after a round.
func (ph *phase) over(samples int64) bool {
	el := time.Since(ph.start)
	if el >= 3*ph.budget {
		return true
	}
	return el >= ph.budget && samples >= ph.floor
}

func (ph *phase) begin(p *simrt.Proc) {
	if ph.traced {
		ph.profileErr = pprof.StartCPUProfile(&ph.profile)
	}
	net := p.World().Net()
	ph.net0 = [3]int64{net.Msgs.Value(), net.Bytes.Value(), net.LogicalOps.Value()}
	ph.first = len(ph.rounds)
	goruntime.ReadMemStats(&ph.ms0)
	ph.start = time.Now()
}

func (ph *phase) end(e *rankEnv) {
	ph.wall += time.Since(ph.start)
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	ph.mallocs += ms.Mallocs - ph.ms0.Mallocs
	ph.gcs += int64(ms.NumGC - ph.ms0.NumGC)
	ph.pauseNs += ms.PauseTotalNs - ph.ms0.PauseTotalNs
	net := e.p.World().Net()
	ph.msgs += net.Msgs.Value() - ph.net0[0]
	ph.bytes += net.Bytes.Value() - ph.net0[1]
	ph.logicalOps += net.LogicalOps.Value() - ph.net0[2]
	ph.worldRates = append(ph.worldRates, simOpsPerSec(ph.rounds[ph.first:]))
	if ph.traced {
		if ph.profileErr == nil {
			pprof.StopCPUProfile()
		}
		ph.crit, ph.critErr = e.s.CriticalPath()
	}
}

// finish sums the per-rank tallies once the last world has stopped.
func (ph *phase) finish() {
	for r := range ph.tallies {
		ph.ops += ph.tallies[r].ops
		ph.attempted += ph.tallies[r].attempted
		ph.failed += ph.tallies[r].failed
	}
}

func (ph *phase) latencies() []int64 {
	parts := make([][]int64, len(ph.tallies))
	for i := range ph.tallies {
		parts[i] = ph.tallies[i].lat
	}
	return sortedCopy(parts...)
}

// simOpsPerSec is the median over rounds of operations per host second.
func simOpsPerSec(rounds []roundStat) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = float64(r.ops) / r.wall.Seconds()
	}
	return median(xs)
}

// modelOpsPerSec is the median over rounds of operations per modelled
// second of the slowest rank's loop.
func modelOpsPerSec(rounds []roundStat) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = float64(r.ops) / (float64(r.model) / 1e9)
	}
	return median(xs)
}

// harness builds worlds for one workload and runs phases on them.
type harness struct {
	w      *workload
	seed   int64
	setups []time.Duration // NewWorld through preload, one per set-up
	worlds []time.Duration // NewWorld alone, one per set-up
	recs   []*recorder     // per rank; nil when untraced
}

func newHarness(w *workload, seed int64) *harness {
	return &harness{w: w, seed: seed}
}

// run builds worlds one after another and runs a segment of every phase
// on each, then repeats set-up alone while it is cheap, so setup_s is a
// median of many set-ups. recs, when non-nil, records the first world's
// set-up and the traced phase.
func (h *harness) run(worlds int, phases []*phase, recs []*recorder) error {
	h.recs = recs
	for _, ph := range phases {
		ph.tallies = make([]tally, h.w.ranks)
		ph.before = make([]counts, h.w.ranks)
		ph.after = make([]counts, h.w.ranks)
	}
	for i := 0; i < worlds; i++ {
		if err := h.world(phases, i == 0, i == worlds-1); err != nil {
			return err
		}
	}
	for len(h.setups) < maxSetups && sum(h.setups) < setupBudget {
		if err := h.world(nil, false, false); err != nil {
			return err
		}
	}
	for _, ph := range phases {
		ph.finish()
	}
	return nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// world builds one world, sets the workload up on it, and runs a segment
// of each phase.
func (h *harness) world(phases []*phase, first, last bool) error {
	for _, ph := range phases {
		ph.floor = 0
		if last {
			ph.floor = int64(ph.minSamples)
		}
	}
	var setupRec []*recorder
	if first {
		setupRec = h.recs
	}
	// Every set-up starts from a heap whose free pages went back to the
	// OS, so none is timed with warmer memory than another.
	debug.FreeOSMemory()
	start := time.Now()
	wld := simrt.NewWorld(simrt.Config{Ranks: h.w.ranks, Seed: h.seed})
	built := time.Now()
	if setupRec != nil {
		setupRec[0].setupSpan("setup.world", start, built)
	}
	var setupDone time.Time
	err := wld.Run(func(p *simrt.Proc) {
		e := &rankEnv{p: p, seed: h.seed}
		if setupRec != nil {
			e.rec = setupRec[p.Rank()]
		}
		t0 := time.Now()
		var opts []rma.SessionOption
		if h.w.open != nil {
			opts = h.w.open(p.Rank())
		}
		e.s = rma.Open(p, opts...)
		e.rec.setupSpan("setup.open", t0, time.Now())
		loop := h.w.setup(e)
		p.Barrier()
		if p.Rank() == 0 {
			setupDone = time.Now()
		}
		for _, ph := range phases {
			h.runPhase(e, loop, ph)
		}
	})
	wld.Close()
	if err != nil {
		return fmt.Errorf("world run: %w", err)
	}
	h.setups = append(h.setups, setupDone.Sub(start))
	h.worlds = append(h.worlds, built.Sub(start))
	for _, ph := range phases {
		if ph.critErr != nil {
			return fmt.Errorf("critical path: %w", ph.critErr)
		}
		if ph.profileErr != nil {
			return fmt.Errorf("cpu profile: %w", ph.profileErr)
		}
		for r := range ph.after {
			ph.layerCounts = ph.layerCounts.add(ph.after[r].sub(ph.before[r]))
		}
	}
	return nil
}

// runPhase runs closed-loop rounds until rank 0 calls the phase over.
// Every rank takes part in every round's collectives.
func (h *harness) runPhase(e *rankEnv, loop rankLoop, ph *phase) {
	p := e.p
	comm := p.Comm()
	me := p.Rank()
	if ph.traced {
		rma.Open(p, rma.WithTracing(traceRingCap))
		e.rec = h.recs[me]
	} else {
		e.rec = nil
	}
	t := &ph.tallies[me]
	ph.before[me] = loop.counts()
	p.Barrier()
	if me == 0 {
		ph.begin(p)
	}
	p.Barrier()
	for {
		var start time.Time
		if me == 0 {
			start = time.Now()
		}
		ops0 := t.ops
		t0 := p.Now()
		loop.round(h.w.perRound, t)
		slowest := comm.AllreduceInt64(simrt.OpMax, int64(p.Now()-t0))
		ops := comm.AllreduceInt64(simrt.OpSum, t.ops-ops0)
		if me == 0 {
			ph.rounds = append(ph.rounds, roundStat{wall: time.Since(start), ops: ops, model: slowest})
		}
		loop.verify(t)
		samples := comm.AllreduceInt64(simrt.OpSum, int64(len(t.lat)))
		var stop int64
		if me == 0 && ph.over(samples) {
			stop = 1
		}
		if comm.AllreduceInt64(simrt.OpMax, stop) == 1 {
			break
		}
		p.Barrier()
	}
	p.Barrier()
	if me == 0 {
		ph.end(e)
	}
	ph.after[me] = loop.counts()
}
