// Package dht is a distributed hash table built purely on the one-sided
// rma surface — the "serve real traffic" consumer the ROADMAP names, and
// the shape of foMPI's flagship demo: an open-addressing table striped
// across every rank's exposed memory, accessed with Put/Get/CAS and 8-byte
// read-modify-write words, never with messages to the owner's CPU.
//
// Layout. Each of the first Servers() ranks exposes a stripe of PerRank()
// fixed-size buckets; bucket i of the global table lives at stripe
// i/perRank, local slot i%perRank. A bucket is
//
//	[ word int64 | key int64 | value ValueSize bytes ]
//
// where word packs a version counter, a waiter bit and a 2-bit state:
//
//	word = version<<3 | waitBit | state     state: 0 empty, 1 locked,
//	                                               2 full, 3 tombstone
//
// The waiter bit (4) is only ever set on a locked word. Behind the buckets
// every exposure carries one int64 waiter slot per world rank and one
// int64 wake word:
//
//	[ buckets | slot[0] ... slot[Size-1] | wake ]
//
// Zeroed memory is an empty table. Keys hash with splitmix64 and probe
// linearly through the global index space, wrapping across stripes, so a
// nearly-full stripe spills onto the next rank instead of failing.
//
// Protocol. Readers issue one blocking Get of the whole bucket: target
// applies are per-operation atomic, so the snapshot is consistent — a
// full word means the value bytes belong to that version. Writers claim a
// bucket by CompareSwap on the word (empty/tombstone/full -> locked,
// version+1), stream key and value with ordered puts, and release with an
// ordered CompareSwap from locked to full at version+2; it cannot overtake
// the value bytes, and one Complete per mutation makes the whole
// transition durable before the call returns. Every successful transition
// increments the version exactly once, so a CompareSwap on a full word at
// version v proves the value bytes are still the ones snapshotted at v —
// the basis of Map.CAS.
//
// Retries never poll. An operation that finds its bucket locked parks: it
// writes a ticket naming the bucket into its own waiter slot on that
// stripe, sets the waiter bit with an ordered CompareSwap against the
// locked word it saw, and waits in Session.Select for the ticket to land
// in its own wake word. The holder's release returns the old word; only
// when it carries the waiter bit does the holder read the stripe's slots
// and raise each waiting rank's wake word to its ticket — one notified
// max-accumulate per waiter, nothing sent while the lock is held. Waiters
// then re-read the bucket. The release always writes a word without the
// waiter bit, so converged table bytes stay independent of contention
// interleavings (the chaos tests compare stripes byte-exact against a
// fault-free run), and the slots lie outside the bucket bytes.
//
// All table traffic rides the session it was opened on: batching,
// sharding, events, fault injection, and buddy replication all apply. With
// WithFailover a map whose stripe owner is declared dead (ErrRankFailed)
// waits for the spare rebuild and retries against the successor; a parked
// waiter also wakes on the owner's death and takes the same path. That
// watch covers a stripe's first owner only: a successor spare lies
// outside the communicator Select addresses, so a waiter parked on it is
// woken by the holder alone. The holder's retried release, after the
// successor dies in turn, scans the slots again to make up for a wake the
// death took with it; but if no second rebuild comes, the holder fails
// and the waiter sleeps for good, where a polling reader would have seen
// ErrRankFailed.
package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/stats"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

// Bucket word states.
const (
	stateEmpty  = 0
	stateLocked = 1
	stateFull   = 2
	stateTomb   = 3
)

// waitBit marks a locked word whose holder must wake parked waiters.
const waitBit = 4

const (
	wordOff = 0 // lock/version word
	keyOff  = 8 // key int64
	valOff  = 16
)

// Defaults for Open.
const (
	DefaultBuckets   = 1024
	DefaultValueSize = 8
)

// ErrTableFull reports a probe that found no claimable bucket within the
// probe budget — the table is (locally) full for that key.
var ErrTableFull = errors.New("dht: no free bucket within the probe budget")

// Option configures Open — the same functional-option shape as rma.Open,
// with the taxonomy trivial because every dht option is collective.
type Option func(*config)

type config struct {
	perRank  int
	valSize  int
	servers  int
	maxProbe int
	failover bool
}

// WithBuckets sets the number of buckets each server rank exposes
// (default DefaultBuckets).
func WithBuckets(perRank int) Option {
	return func(c *config) { c.perRank = perRank }
}

// WithValueSize fixes the value payload per bucket in bytes (default
// DefaultValueSize). Every Put/CAS value must be exactly this long.
func WithValueSize(n int) Option {
	return func(c *config) { c.valSize = n }
}

// WithServers stripes the table over only the first n world ranks;
// the remaining ranks are pure clients (default: every rank serves).
func WithServers(n int) Option {
	return func(c *config) { c.servers = n }
}

// WithMaxProbe bounds the linear probe before an insert fails with
// ErrTableFull (default: the whole table).
func WithMaxProbe(n int) Option {
	return func(c *config) { c.maxProbe = n }
}

// WithFailover makes operations survive a stripe owner's death: on
// ErrRankFailed the map waits for the spare rebuild (AwaitRebuilt),
// retargets the stripe at the successor, and retries. Pair it with
// rma.WithReplication on the session, or the rebuild never comes.
func WithFailover() Option {
	return func(c *config) { c.failover = true }
}

// Stats is a snapshot of one map handle's client-side counters.
type Stats struct {
	Gets, Puts, Deletes, CASes int64 // public operations completed
	Misses                     int64 // Gets that found no key
	ProbeSteps                 int64 // buckets examined beyond the home slot
	LockRetries                int64 // times an operation found its bucket locked and parked
	CASRaces                   int64 // claim CompareSwaps lost to a racer
	Failovers                  int64 // stripe retargets after a rank death
}

// Map is one rank's handle on the global table. A handle is owned by its
// rank's process function and is not safe for concurrent use, matching
// the rest of the rma surface.
type Map struct {
	s       *rma.Session
	p       *runtime.Proc
	order   datatype.ByteOrder
	ranks   []rma.TargetMem // every rank's exposure: wake words
	stripes []rma.TargetMem // ranks[:servers]: the table
	local   rma.Region      // this rank's exposure

	perRank  int
	valSize  int
	bucketSz int
	total    int
	maxProbe int
	failover bool
	slotsOff int            // waiter slots, one int64 per rank
	wakeOff  int            // this rank's wake word
	seq      []rma.OpOption // attributes of every put to a stripe

	buf   rma.Region // bucket-sized scratch: snapshot gets
	kv    rma.Region // key+value scratch: insert payload
	word  rma.Region // 8-byte scratch: slot and wake puts
	slots rma.Region // slot-array scratch: the releaser's waiter scan

	ticket uint64           // park generation, high half of every ticket
	arms   []rma.SelectCase // reused Select cases while parked

	gets, puts, deletes, cases        stats.Counter
	misses                            stats.Counter
	probeSteps, lockRetries, casRaces stats.Counter
	failovers                         stats.Counter
	contention                        []stats.Counter // per stripe: parks + lost claims
	lat                               *stats.Histogram
}

// Open builds a map handle collectively: every compute rank of the world
// must call it with the same options. Each of the first Servers ranks
// exposes perRank buckets; every rank (server or client) receives the
// stripe descriptors and can operate on the table immediately. The zeroed
// fresh memory is the empty table — no initialization traffic.
func Open(s *rma.Session, opts ...Option) (*Map, error) {
	p := s.Proc()
	cfg := config{
		perRank: DefaultBuckets,
		valSize: DefaultValueSize,
		servers: p.Size(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.perRank <= 0 || cfg.valSize <= 0 {
		return nil, fmt.Errorf("dht: buckets and value size must be positive (got %d, %d): %w", cfg.perRank, cfg.valSize, rma.ErrBadHandle)
	}
	if cfg.servers <= 0 || cfg.servers > p.Size() {
		return nil, fmt.Errorf("dht: %d servers in a %d-rank world: %w", cfg.servers, p.Size(), rma.ErrBadHandle)
	}
	bucketSz := valOff + cfg.valSize
	total := cfg.servers * cfg.perRank
	if cfg.maxProbe <= 0 || cfg.maxProbe > total {
		cfg.maxProbe = total
	}
	slotsOff := cfg.perRank * bucketSz
	wakeOff := slotsOff + 8*p.Size()

	// Collective allocation: uniform size keeps the exchange symmetric;
	// only the first Servers stripes hold buckets, every rank's wake word
	// is addressed.
	tms, local, err := s.ExposeCollective(wakeOff + 8)
	if err != nil {
		return nil, err
	}
	m := &Map{
		s:          s,
		p:          p,
		order:      p.ByteOrder(),
		ranks:      tms,
		stripes:    tms[:cfg.servers],
		local:      local,
		perRank:    cfg.perRank,
		valSize:    cfg.valSize,
		bucketSz:   bucketSz,
		total:      total,
		maxProbe:   cfg.maxProbe,
		failover:   cfg.failover,
		slotsOff:   slotsOff,
		wakeOff:    wakeOff,
		buf:        p.Alloc(bucketSz),
		kv:         p.Alloc(8 + cfg.valSize),
		word:       p.Alloc(8),
		slots:      p.Alloc(8 * p.Size()),
		arms:       make([]rma.SelectCase, 0, p.Size()+1),
		contention: make([]stats.Counter, cfg.servers),
		lat:        new(stats.Histogram),
	}
	// Every put to a stripe is ordered, so it applies before the word
	// CompareSwap issued after it. A target that shards applies runs
	// ordered puts on a designated shard, apart from the atomic serializer
	// that runs CompareSwaps; there the puts join the serializer instead.
	// Every rank of a world opens its session alike, so this rank's
	// engine answers for the targets'.
	m.seq = []rma.OpOption{rma.WithOrdering()}
	if s.Engine().ShardPool() != nil {
		m.seq = append(m.seq, rma.WithAtomic())
	}
	m.registerMetrics()
	return m, nil
}

// registerMetrics aliases the map's live counters into the session's
// telemetry registry when one is enabled. Duplicate names (a second map
// on the rank) keep their own cells unregistered — the handle accessors
// still see them.
func (m *Map) registerMetrics() {
	reg := m.s.Engine().Metrics()
	if reg == nil {
		return
	}
	_ = reg.Register("dht.gets", &m.gets)
	_ = reg.Register("dht.puts", &m.puts)
	_ = reg.Register("dht.deletes", &m.deletes)
	_ = reg.Register("dht.cas", &m.cases)
	_ = reg.Register("dht.misses", &m.misses)
	_ = reg.Register("dht.probe_steps", &m.probeSteps)
	_ = reg.Register("dht.lock_retries", &m.lockRetries)
	_ = reg.Register("dht.cas_races", &m.casRaces)
	_ = reg.Register("dht.failovers", &m.failovers)
	for i := range m.contention {
		_ = reg.Register(fmt.Sprintf("dht.contention.stripe.%d", i), &m.contention[i])
	}
	_ = reg.RegisterHistogram("latency.dht.request", m.lat)
}

// Stripes returns the live stripe descriptors, one per server rank.
// They are the table's raw memory: going around the bucket protocol with
// Session.Put/Get on them corrupts lock words (rmalint's dhtraw rule
// flags exactly that). Legitimate uses read converged state — the chaos
// tests fetch whole stripes for byte-exact comparison.
func (m *Map) Stripes() []rma.TargetMem {
	return m.stripes
}

// Local returns this rank's own exposure: its stripe's buckets first
// (unused on ranks beyond the server count), then the waiter slots and
// the wake word.
func (m *Map) Local() rma.Region { return m.local }

// Servers returns the number of ranks the table is striped over.
func (m *Map) Servers() int { return len(m.stripes) }

// PerRank returns the buckets per server stripe.
func (m *Map) PerRank() int { return m.perRank }

// ValueSize returns the fixed value payload length.
func (m *Map) ValueSize() int { return m.valSize }

// Stats snapshots the handle's client-side counters.
func (m *Map) Stats() Stats {
	return Stats{
		Gets: m.gets.Value(), Puts: m.puts.Value(),
		Deletes: m.deletes.Value(), CASes: m.cases.Value(),
		Misses:     m.misses.Value(),
		ProbeSteps: m.probeSteps.Value(), LockRetries: m.lockRetries.Value(),
		CASRaces: m.casRaces.Value(), Failovers: m.failovers.Value(),
	}
}

// StripeContention returns this handle's per-stripe contention counts
// (parks plus lost bucket claims, attributed to the stripe they happened
// on).
func (m *Map) StripeContention() []int64 {
	out := make([]int64, len(m.contention))
	for i := range m.contention {
		out[i] = m.contention[i].Value()
	}
	return out
}

// Latency returns the handle's request-latency histogram (virtual-time
// nanoseconds per public operation). The same histogram is registered as
// latency.dht.request when the session has metrics enabled.
func (m *Map) Latency() *stats.Histogram { return m.lat }

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64->64 hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (m *Map) home(key int64) int {
	return int(splitmix64(uint64(key)) % uint64(m.total))
}

// locate maps a global bucket index to (stripe, byte offset).
func (m *Map) locate(idx int) (int, int) {
	return idx / m.perRank, (idx % m.perRank) * m.bucketSz
}

func (m *Map) enc64(b []byte, v uint64) {
	if m.order == datatype.BigEndian {
		binary.BigEndian.PutUint64(b, v)
	} else {
		binary.LittleEndian.PutUint64(b, v)
	}
}

func (m *Map) dec64(b []byte) uint64 {
	if m.order == datatype.BigEndian {
		return binary.BigEndian.Uint64(b)
	}
	return binary.LittleEndian.Uint64(b)
}

func (m *Map) setWord(v uint64) {
	var b [8]byte
	m.enc64(b[:], v)
	m.p.WriteLocal(m.word, 0, b[:])
}

func pack(version int64, state int64) int64 { return version<<3 | state }
func wordState(w int64) int64               { return w & 3 }
func wordVersion(w int64) int64             { return w >> 3 }

// failing wraps one remote primitive with the failover retry: when the
// stripe owner is declared dead and failover is armed, wait for the spare
// rebuild, retarget the stripe, and run the primitive once more. It
// reports whether that retry ran — CompareSwap callers need to know,
// because the first attempt may have been applied and replicated before
// the response was lost.
func (m *Map) failing(sr int, f func() error) (retried bool, err error) {
	err = f()
	if err == nil || !m.failover || !errors.Is(err, rma.ErrRankFailed) {
		return false, err
	}
	succ, rerr := m.s.AwaitRebuilt(m.stripes[sr].Owner)
	if rerr != nil {
		return false, err
	}
	m.stripes[sr].Owner = succ
	m.failovers.Inc()
	return true, f()
}

// snapshot reads bucket (sr, off) in one blocking Get: word, key and
// value land atomically with respect to target-side applies.
func (m *Map) snapshot(sr, off int) (word, key int64, err error) {
	_, err = m.failing(sr, func() error {
		_, e := m.s.Get(m.buf, m.bucketSz, rma.Byte, m.stripes[sr], off, rma.WithBlocking())
		return e
	})
	if err != nil {
		return 0, 0, err
	}
	raw := m.p.ReadLocal(m.buf, 0, valOff)
	return int64(m.dec64(raw[wordOff:])), int64(m.dec64(raw[keyOff:])), nil
}

// claim CompareSwaps the bucket word from observed to locked(version+1),
// returning the locked word and whether this handle now holds the claim.
// After a failover retry, finding the locked word already installed also
// counts, with or without the waiter bit: the first attempt reached the
// dying owner and was replicated before the response was lost, and a
// reader may have parked on it since — treating it as a lost race would
// leave the claimer and its waiters parked forever on its own lock. The
// release clears the bit and wakes them (see release). (A racer's
// identical claim in that window is indistinguishable; recovery stays
// sound because each key has a single writer while a stripe fails over,
// which the tests and E16 arrange.)
func (m *Map) claim(sr, off int, observed int64) (locked int64, claimed bool, err error) {
	locked = pack(wordVersion(observed)+1, stateLocked)
	var old int64
	retried, err := m.failing(sr, func() error {
		var e error
		old, e = m.s.CompareSwap(m.stripes[sr], off+wordOff, observed, locked)
		return e
	})
	if err != nil {
		return 0, false, err
	}
	return locked, old == observed || (retried && old&^waitBit == locked), nil
}

// finish streams the payload puts of a mutation, releases the bucket from
// locked to next, and wakes whoever parked on it. The release can never
// overtake the value bytes (see Map.seq), and the single Complete makes
// the transition durable (with replication: buddy-acknowledged) before
// returning.
func (m *Map) finish(sr, off int, payload rma.Region, n, payloadOff int, locked, next int64) error {
	attempt := 0
	_, err := m.failing(sr, func() error {
		attempt++
		if n > 0 {
			if _, err := m.s.PutNotify(payload, n, rma.Byte, m.stripes[sr], off+payloadOff, m.seq...); err != nil {
				return err
			}
		}
		waiters, err := m.release(sr, off, locked, next, attempt > 1)
		if err != nil {
			return err
		}
		if waiters {
			if err := m.wake(sr, off); err != nil {
				return err
			}
		}
		return m.s.Complete(m.stripes[sr].Owner)
	})
	return err
}

// release swaps the bucket word from locked to next with an ordered
// CompareSwap and reports whether waiters registered while the lock was
// held. Under the lock only the waiter bit can change, so a second swap
// from locked|waitBit always lands. On a failover retry a word already
// past next's version means the first attempt's release reached the dead
// owner's replica before the response was lost; whether that release saw
// waiters is lost with it, so the retry reports waiters and the holder
// scans the slots again. A wake nobody needed only makes its waiter
// re-read the bucket.
func (m *Map) release(sr, off int, locked, next int64, retried bool) (waiters bool, err error) {
	old, err := m.s.CompareSwap(m.stripes[sr], off+wordOff, locked, next, rma.WithOrdering())
	if err != nil {
		return false, err
	}
	if old == locked|waitBit {
		if old, err = m.s.CompareSwap(m.stripes[sr], off+wordOff, locked|waitBit, next, rma.WithOrdering()); err != nil {
			return false, err
		}
		waiters = old == locked|waitBit
	}
	switch {
	case old == locked || waiters:
		return waiters, nil
	case retried && wordVersion(old) >= wordVersion(next):
		return true, nil
	}
	return false, fmt.Errorf("dht: bucket word %#x changed under the lock (held %#x)", old, locked)
}

// wake reads the stripe's waiter slots and raises every waiting rank's
// wake word to the ticket naming the bucket at off — one notified
// max-accumulate per waiter. Tickets only grow, so a stale ticket left in
// a slot can never overwrite a newer one that already landed. A waiter
// whose rank is gone has nothing to wake; its wake's failure is dropped.
func (m *Map) wake(sr, off int) error {
	n := len(m.ranks)
	if _, err := m.s.Get(m.slots, n, rma.Int64, m.stripes[sr], m.slotsOff, rma.WithBlocking()); err != nil {
		return err
	}
	raw := m.p.ReadLocal(m.slots, 0, 8*n)
	bucket := uint32(off/m.bucketSz + 1)
	for r := 0; r < n; r++ {
		t := m.dec64(raw[8*r:])
		if uint32(t) != bucket {
			continue
		}
		m.setWord(t)
		_, err := m.s.Accumulate(rma.Max, m.word, 1, rma.Int64, m.ranks[r], m.wakeOff,
			rma.WithAtomic(), rma.WithNotify(), rma.WithBlocking())
		if err != nil && !errors.Is(err, rma.ErrRankFailed) && !errors.Is(err, rma.ErrLinkFailed) {
			return err
		}
	}
	return nil
}

// park waits until the bucket at (sr, off), seen holding the locked word,
// is released. It registers a fresh ticket in this rank's waiter slot on
// the stripe, then sets the waiter bit with an ordered CompareSwap: the
// slot put applies first, so a holder whose release sees the bit also
// sees the slot. If the word moved on before the bit landed there is
// nothing to wait for. Otherwise it sleeps until the holder's wake
// delivers the ticket, or until the stripe owner fails — then the error
// goes through failover like any other primitive's, and the retry parks
// against the successor.
func (m *Map) park(sr, off int, locked int64) error {
	m.ticket++
	ticket := m.ticket<<32 | uint64(off/m.bucketSz+1)
	_, err := m.failing(sr, func() error {
		if err := m.putSlot(sr, ticket); err != nil {
			return err
		}
		old, err := m.s.CompareSwap(m.stripes[sr], off+wordOff, locked, locked|waitBit, rma.WithOrdering())
		if err != nil {
			return err
		}
		if old != locked && old != locked|waitBit {
			// Released (and maybe re-claimed) already: re-read.
			return m.putSlot(sr, 0)
		}
		m.lockRetries.Inc()
		m.contention[sr].Inc()
		if err := m.sleep(sr, ticket); err != nil {
			return err
		}
		return m.putSlot(sr, 0)
	})
	return err
}

// putSlot writes v into this rank's waiter slot on stripe sr, in order
// with the word CompareSwaps around it.
func (m *Map) putSlot(sr int, v uint64) error {
	m.setWord(v)
	req, err := m.s.Put(m.word, 1, rma.Int64, m.stripes[sr], m.slotsOff+8*m.p.Rank(), m.seq...)
	if err != nil {
		return err
	}
	req.Wait()
	return req.Err()
}

// sleep blocks in Select until the wake word reaches ticket. Each
// round arms one OnApplied case per rank at one past its current applied
// count — any operation applying here fires it, the wake among them,
// and a wake that lands between arming and the check below has already
// lifted its origin past the threshold — plus a case that fires on the
// stripe owner's failure. Nothing crosses the network while asleep.
func (m *Map) sleep(sr int, ticket uint64) error {
	eng := m.s.Engine()
	comm := m.p.Comm()
	for {
		m.arms = m.arms[:0]
		for r := 0; r < comm.Size(); r++ {
			m.arms = append(m.arms, rma.OnApplied(r, eng.AppliedFrom(comm.WorldRank(r))+1))
		}
		if m.dec64(m.p.ReadLocal(m.local, m.wakeOff, 8)) >= ticket {
			return nil
		}
		// A successor spare lies outside the communicator Select
		// addresses; its failure is not watched (see the package
		// comment).
		if owner := m.stripes[sr].Owner; owner < comm.Size() {
			m.arms = append(m.arms, rma.OnConfirmed(owner, math.MaxInt64))
		}
		_, ev, err := m.s.Select(m.arms...)
		if err != nil {
			return err
		}
		if ev.Kind == rma.EvFault {
			return ev.Err
		}
	}
}

func (m *Map) observe(start vtime.Time) {
	m.lat.Observe(int64(m.p.Now() - start))
}

// Get returns the value stored under key, or ok=false when absent.
func (m *Map) Get(key int64) ([]byte, bool, error) {
	start := m.p.Now()
	defer m.observe(start)
	m.gets.Inc()
	h := m.home(key)
	for i := 0; i < m.maxProbe; i++ {
		idx := (h + i) % m.total
		sr, off := m.locate(idx)
		if i > 0 {
			m.probeSteps.Inc()
		}
		for {
			w, k, err := m.snapshot(sr, off)
			if err != nil {
				return nil, false, err
			}
			switch wordState(w) {
			case stateEmpty:
				// The chain terminator: the key is nowhere.
				m.misses.Inc()
				return nil, false, nil
			case stateLocked:
				if err := m.park(sr, off, w); err != nil {
					return nil, false, err
				}
				continue
			case stateFull:
				if k == key {
					val := append([]byte(nil), m.p.ReadLocal(m.buf, valOff, m.valSize)...)
					return val, true, nil
				}
			}
			break // full with another key, or tombstone: probe on
		}
	}
	m.misses.Inc()
	return nil, false, nil
}

// Put stores value (exactly ValueSize bytes) under key, inserting or
// overwriting.
func (m *Map) Put(key int64, value []byte) error {
	if len(value) != m.valSize {
		return fmt.Errorf("dht: value is %d bytes, table stores %d: %w", len(value), m.valSize, rma.ErrType)
	}
	start := m.p.Now()
	defer m.observe(start)
	m.puts.Inc()
	for {
		done, err := m.tryPut(key, value)
		if err != nil || done {
			return err
		}
		// Lost the claim race: restart the probe from the home slot — the
		// winner may have been inserting the same key.
	}
}

// tryPut runs one probe-and-claim pass. done=false means a lost race and
// the caller restarts.
func (m *Map) tryPut(key int64, value []byte) (done bool, err error) {
	h := m.home(key)
	firstFree := -1 // earliest reusable (tombstone) slot seen on the way
	for i := 0; i < m.maxProbe; i++ {
		idx := (h + i) % m.total
		sr, off := m.locate(idx)
		if i > 0 {
			m.probeSteps.Inc()
		}
		for {
			w, k, err := m.snapshot(sr, off)
			if err != nil {
				return false, err
			}
			switch wordState(w) {
			case stateLocked:
				if err := m.park(sr, off, w); err != nil {
					return false, err
				}
				continue
			case stateFull:
				if k != key {
					// occupied by another key: probe on
				} else {
					// Update in place: full(v) -> locked(v+1) -> full(v+2).
					locked, claimed, err := m.claim(sr, off, w)
					if err != nil {
						return false, err
					}
					if !claimed {
						m.casRaces.Inc()
						m.contention[sr].Inc()
						return false, nil
					}
					m.p.WriteLocal(m.kv, 0, value)
					return true, m.finish(sr, off, m.kv, m.valSize, valOff, locked, pack(wordVersion(w)+2, stateFull))
				}
			case stateTomb:
				if firstFree < 0 {
					firstFree = idx
				}
			case stateEmpty:
				// Chain terminator: the key is absent. Insert at the
				// earliest tombstone if one was passed, else here.
				at := idx
				if firstFree >= 0 {
					at = firstFree
				}
				return m.insertAt(at, key, value)
			}
			break
		}
	}
	if firstFree >= 0 {
		return m.insertAt(firstFree, key, value)
	}
	return true, fmt.Errorf("dht: put %d: %w", key, ErrTableFull)
}

// insertAt claims the (empty or tombstone) bucket at idx and writes
// key+value. done=false on a lost race.
func (m *Map) insertAt(idx int, key int64, value []byte) (done bool, err error) {
	sr, off := m.locate(idx)
	for {
		w, _, err := m.snapshot(sr, off)
		if err != nil {
			return false, err
		}
		st := wordState(w)
		if st == stateLocked {
			if err := m.park(sr, off, w); err != nil {
				return false, err
			}
			continue
		}
		if st == stateFull {
			// A racer filled our slot (possibly with our key): restart.
			m.casRaces.Inc()
			m.contention[sr].Inc()
			return false, nil
		}
		locked, claimed, err := m.claim(sr, off, w)
		if err != nil {
			return false, err
		}
		if !claimed {
			m.casRaces.Inc()
			m.contention[sr].Inc()
			return false, nil
		}
		kb := make([]byte, 8+m.valSize)
		m.enc64(kb[:8], uint64(key))
		copy(kb[8:], value)
		m.p.WriteLocal(m.kv, 0, kb)
		return true, m.finish(sr, off, m.kv, 8+m.valSize, keyOff, locked, pack(wordVersion(w)+2, stateFull))
	}
}

// Delete removes key, reporting whether it was present. The bucket
// becomes a tombstone: probe chains through it stay intact.
func (m *Map) Delete(key int64) (bool, error) {
	start := m.p.Now()
	defer m.observe(start)
	m.deletes.Inc()
	h := m.home(key)
	for i := 0; i < m.maxProbe; i++ {
		idx := (h + i) % m.total
		sr, off := m.locate(idx)
		if i > 0 {
			m.probeSteps.Inc()
		}
		for {
			w, k, err := m.snapshot(sr, off)
			if err != nil {
				return false, err
			}
			switch wordState(w) {
			case stateEmpty:
				return false, nil
			case stateLocked:
				if err := m.park(sr, off, w); err != nil {
					return false, err
				}
				continue
			case stateFull:
				if k == key {
					// One transition: full(v) -> tombstone(v+1), no lock
					// phase — the key and value bytes stay behind but are
					// unreachable, and any concurrent CAS on version v
					// correctly fails.
					hit, err := m.tombstone(sr, off, w)
					if err != nil {
						return false, err
					}
					if !hit {
						// Lost to a concurrent writer: re-examine.
						m.casRaces.Inc()
						m.contention[sr].Inc()
						continue
					}
					return true, nil
				}
			}
			break
		}
	}
	return false, nil
}

// tombstone CompareSwaps full(v) -> tombstone(v+1) directly, reporting
// whether the transition landed. Like claim, a failover retry that finds
// the tombstone already installed owns it — the first attempt was
// replicated before the response was lost.
func (m *Map) tombstone(sr, off int, observed int64) (bool, error) {
	tomb := pack(wordVersion(observed)+1, stateTomb)
	var old int64
	retried, err := m.failing(sr, func() error {
		var e error
		old, e = m.s.CompareSwap(m.stripes[sr], off+wordOff, observed, tomb)
		return e
	})
	if err != nil {
		return false, err
	}
	return old == observed || (retried && old == tomb), nil
}

// CAS atomically replaces the value under key with newVal iff the current
// value equals expect (both exactly ValueSize bytes). It returns whether
// the swap happened; (false, nil) also covers an absent key.
func (m *Map) CAS(key int64, expect, newVal []byte) (bool, error) {
	if len(expect) != m.valSize || len(newVal) != m.valSize {
		return false, fmt.Errorf("dht: CAS values are %d/%d bytes, table stores %d: %w", len(expect), len(newVal), m.valSize, rma.ErrType)
	}
	start := m.p.Now()
	defer m.observe(start)
	m.cases.Inc()
	h := m.home(key)
	for i := 0; i < m.maxProbe; i++ {
		idx := (h + i) % m.total
		sr, off := m.locate(idx)
		if i > 0 {
			m.probeSteps.Inc()
		}
		for {
			w, k, err := m.snapshot(sr, off)
			if err != nil {
				return false, err
			}
			switch wordState(w) {
			case stateEmpty:
				return false, nil
			case stateLocked:
				if err := m.park(sr, off, w); err != nil {
					return false, err
				}
				continue
			case stateFull:
				if k != key {
					break
				}
				cur := m.p.ReadLocal(m.buf, valOff, m.valSize)
				if !bytesEqual(cur, expect) {
					return false, nil
				}
				// The claim succeeding at version v proves the snapshot
				// (taken at v) is still the live value: every transition
				// bumps the version.
				locked, claimed, err := m.claim(sr, off, w)
				if err != nil {
					return false, err
				}
				if !claimed {
					m.casRaces.Inc()
					m.contention[sr].Inc()
					continue
				}
				m.p.WriteLocal(m.kv, 0, newVal)
				if err := m.finish(sr, off, m.kv, m.valSize, valOff, locked, pack(wordVersion(w)+2, stateFull)); err != nil {
					return false, err
				}
				return true, nil
			}
			break
		}
	}
	return false, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
