package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mpi3rma/dht"
	"mpi3rma/dht/queue"
	simrt "mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// Table shape shared by the kv workloads (the E16 serving shape).
const (
	kvServers = 7
	kvClients = 7
	kvBuckets = 4096 // per server stripe
	kvKeys    = 16384
	kvZipfS   = 1.1
)

// put-storm shape: Figure 2's seven origins into one rank-0 region.
const (
	stormOrigins = 7
	stormRegion  = 4096
	stormWindow  = 64
	stormBatch   = 16
)

var stormSizes = []int{8, 64, 512, 4096}

// queue-drain shape: E16's task queue.
const (
	queueProducers = 7
	queueConsumers = 7
	queueSlots     = 64
	queueSlotSize  = 16
)

var workloads = map[string]*workload{
	"kv-read-heavy":  kvWorkload("kv-read-heavy", 90, 4000),
	"kv-write-heavy": kvWorkload("kv-write-heavy", 50, 2500),
	"put-storm": {
		name: "put-storm",
		shape: fmt.Sprintf("closed loop, %d origins x windows of %d nonblocking atomic puts (sizes %v uniform, aligned displacements in a %d-byte rank-0 region), batch %d, one Complete(0) per window; latency sample = window",
			stormOrigins, stormWindow, stormSizes, stormRegion, stormBatch),
		ranks:    stormOrigins + 1,
		perRound: 4,
		open:     stormOpen,
		setup:    setupStorm,
		mix:      stormMix,
	},
	"queue-drain": {
		name: "queue-drain",
		shape: fmt.Sprintf("closed loop, %d producers and %d consumers through queue.New(owner 0, %d slots, %d-byte tasks), equal tasks per side per round; latency sample = Enqueue or Dequeue call",
			queueProducers, queueConsumers, queueSlots, queueSlotSize),
		ranks:    queueProducers + queueConsumers,
		perRound: 200,
		setup:    setupQueue,
		mix:      queueMix,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- kv-read-heavy / kv-write-heavy ----

func kvWorkload(name string, readPct, perRound int) *workload {
	return &workload{
		name: name,
		shape: fmt.Sprintf("closed loop, %d dht server stripes x %d buckets, %d clients, Zipf s=%.1f over %d preloaded 8-byte keys, %d%% Get / %d%% Put; latency sample = Get or Put call",
			kvServers, kvBuckets, kvClients, kvZipfS, kvKeys, readPct, 100-readPct),
		ranks:    kvServers + kvClients,
		perRound: perRound,
		setup:    func(e *rankEnv) rankLoop { return setupKV(e, readPct) },
		mix:      kvMix,
	}
}

type kvRank struct {
	e       *rankEnv
	m       *dht.Map
	client  bool
	readPct int
	rng     *rand.Rand
	zipf    *rand.Zipf
	val     []byte
	seq     uint64
}

// kvValue encodes the key in the upper 32 bits so every read can check it
// got the bytes of the key it asked for; the low bits vary per write.
func kvValue(b []byte, key int64, writer int, seq uint64) {
	binary.LittleEndian.PutUint64(b, uint64(key)<<32|uint64(writer)<<24|seq&0xffffff)
}

func setupKV(e *rankEnv, readPct int) rankLoop {
	p := e.p
	t0 := time.Now()
	m, err := dht.Open(e.s, dht.WithServers(kvServers), dht.WithBuckets(kvBuckets), dht.WithValueSize(8))
	if err != nil {
		panic(err)
	}
	e.rec.setupSpan("setup.expose", t0, time.Now())
	k := &kvRank{e: e, m: m, client: p.Rank() >= kvServers, readPct: readPct, val: make([]byte, 8)}
	t0 = time.Now()
	if k.client {
		// Clients stripe the key space, so every draw hits a present key.
		for key := p.Rank() - kvServers; key < kvKeys; key += kvClients {
			kvValue(k.val, int64(key), p.Rank(), 0)
			if err := m.Put(int64(key), k.val); err != nil {
				panic(fmt.Sprintf("preload key %d: %v", key, err))
			}
		}
		k.rng = rand.New(rand.NewSource(e.seed*1_000_003 + int64(p.Rank())))
		k.zipf = rand.NewZipf(k.rng, kvZipfS, 1, kvKeys-1)
	}
	p.Barrier()
	e.rec.setupSpan("setup.preload", t0, time.Now())
	return k
}

func (k *kvRank) round(n int, t *tally) {
	if !k.client {
		return
	}
	p, rec := k.e.p, k.e.rec
	for i := 0; i < n; i++ {
		var t0, t1, t2 time.Time
		if rec != nil {
			t0 = time.Now()
		}
		key := int64(k.zipf.Uint64())
		read := k.rng.Intn(100) < k.readPct
		t.attempted++
		if read {
			if rec != nil {
				t1 = time.Now()
			}
			before := p.Now()
			v, ok, err := k.m.Get(key)
			t.lat = append(t.lat, int64(p.Now()-before))
			if rec != nil {
				t2 = time.Now()
			}
			if err != nil || !ok || len(v) != 8 || int64(binary.LittleEndian.Uint64(v)>>32) != key {
				t.failed++
			} else {
				t.ops++
			}
			if rec != nil {
				rec.op("kv.get", callMapGet, t0, t1, t2, time.Now())
			}
			continue
		}
		k.seq++
		kvValue(k.val, key, p.Rank(), k.seq)
		if rec != nil {
			t1 = time.Now()
		}
		before := p.Now()
		err := k.m.Put(key, k.val)
		t.lat = append(t.lat, int64(p.Now()-before))
		if rec != nil {
			t2 = time.Now()
		}
		if err != nil {
			t.failed++
		} else {
			t.ops++
		}
		if rec != nil {
			rec.op("kv.put", callMapPut, t0, t1, t2, time.Now())
		}
	}
}

func (k *kvRank) verify(*tally) {}

func (k *kvRank) counts() counts {
	st := k.m.Stats()
	return counts{
		gets: st.Gets, puts: st.Puts, probeSteps: st.ProbeSteps,
		lockRetries: st.LockRetries, casRaces: st.CASRaces,
		contention: k.m.StripeContention(),
	}
}

// kvMix: every Get and every Put attempt reads whole buckets (one
// snapshot per probe step and per retry); every Put then streams the
// 8-byte value and the 8-byte unlock word.
func kvMix(c counts, _ int64) []xfer {
	snapshots := c.gets + c.puts + c.probeSteps + c.lockRetries + c.casRaces
	return []xfer{
		{count: 16 + 8, weight: snapshots},
		{count: 8, weight: 2 * c.puts},
	}
}

// ---- put-storm ----

type stormRank struct {
	e      *rankEnv
	tm     rma.TargetMem
	region rma.Region // rank 0: the target region
	src    rma.Region // origins: a full-size buffer of the rank's fill byte
	rng    *rand.Rand
}

// stormOpen batches the origins' puts; the target needs no options.
func stormOpen(rank int) []rma.SessionOption {
	if rank == 0 {
		return nil
	}
	return []rma.SessionOption{rma.WithBatch(stormBatch)}
}

func setupStorm(e *rankEnv) rankLoop {
	p := e.p
	k := &stormRank{e: e}
	t0 := time.Now()
	if p.Rank() == 0 {
		var tm rma.TargetMem
		tm, k.region = e.s.Expose(stormRegion)
		enc := tm.Encode()
		for r := 1; r <= stormOrigins; r++ {
			p.Send(r, 0, enc)
		}
		k.tm = tm
	} else {
		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		if err != nil {
			panic(err)
		}
		k.tm = tm
		k.src = p.Alloc(stormRegion)
		fill := make([]byte, stormRegion)
		for i := range fill {
			fill[i] = byte(p.Rank())
		}
		p.WriteLocal(k.src, 0, fill)
		k.rng = rand.New(rand.NewSource(e.seed*1_000_003 + int64(p.Rank())))
	}
	p.Barrier()
	e.rec.setupSpan("setup.expose", t0, time.Now())
	return k
}

func (k *stormRank) round(n int, t *tally) {
	if k.e.p.Rank() == 0 {
		return
	}
	p, s, rec := k.e.p, k.e.s, k.e.rec
	for w := 0; w < n; w++ {
		before := p.Now()
		var errs int64
		for i := 0; i < stormWindow; i++ {
			var t0, t1, t2 time.Time
			if rec != nil {
				t0 = time.Now()
			}
			size := stormSizes[k.rng.Intn(len(stormSizes))]
			disp := k.rng.Intn(stormRegion/size) * size
			if rec != nil {
				t1 = time.Now()
			}
			_, err := s.Put(k.src, size, rma.Byte, k.tm, disp, rma.WithAtomic())
			if rec != nil {
				t2 = time.Now()
				rec.op("storm.put", callSessionPut, t0, t1, t2, time.Now())
			}
			if err != nil {
				errs++
			}
		}
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
		}
		err := s.Complete(0)
		if rec != nil {
			t1 := time.Now()
			rec.op("storm.complete", callSessionComplete, t0, t0, t1, t1)
		}
		t.lat = append(t.lat, int64(p.Now()-before))
		t.attempted += stormWindow
		if err != nil {
			t.failed += stormWindow
			continue
		}
		t.failed += errs
		t.ops += stormWindow - errs
	}
}

// verify runs on rank 0 once every origin's window has completed: each
// 8-byte block of the region must hold one origin's fill byte throughout.
// Every put covers whole aligned blocks, so a torn or lost put shows as a
// mixed or zero block.
func (k *stormRank) verify(t *tally) {
	if k.e.p.Rank() != 0 {
		return
	}
	got := k.e.p.ReadLocal(k.region, 0, stormRegion)
	for b := 0; b < stormRegion; b += 8 {
		v := got[b]
		bad := v < 1 || int(v) > stormOrigins
		for _, x := range got[b : b+8] {
			if x != v {
				bad = true
			}
		}
		if bad {
			t.failed++
		}
	}
}

func (k *stormRank) counts() counts { return counts{} }

// stormMix: the four payload sizes, drawn uniformly.
func stormMix(_ counts, ops int64) []xfer {
	out := make([]xfer, len(stormSizes))
	for i, sz := range stormSizes {
		out[i] = xfer{count: sz, weight: max(ops/int64(len(stormSizes)), 1)}
	}
	return out
}

// ---- queue-drain ----

type queueRank struct {
	e        *rankEnv
	q        *queue.Queue
	producer bool
	next     uint64 // producer task counter
	task     []byte
	sum      int64 // this round's checksum of produced or consumed tasks
	count    int64 // this round's produced or consumed tasks
}

func setupQueue(e *rankEnv) rankLoop {
	t0 := time.Now()
	q, err := queue.New(e.s, 0, queueSlots, queueSlotSize)
	if err != nil {
		panic(err)
	}
	e.rec.setupSpan("setup.expose", t0, time.Now())
	return &queueRank{e: e, q: q, producer: e.p.Rank() >= queueConsumers, task: make([]byte, queueSlotSize)}
}

// taskCheck derives a task's second word from its first, so a consumer
// can tell a torn or misdelivered slot from a real task.
func taskCheck(id uint64) uint64 {
	x := id + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (k *queueRank) round(n int, t *tally) {
	p, rec := k.e.p, k.e.rec
	k.sum, k.count = 0, 0
	for i := 0; i < n; i++ {
		var t0, t1, t2 time.Time
		if rec != nil {
			t0 = time.Now()
		}
		if k.producer {
			k.next++
			id := uint64(k.e.seed)<<48 ^ uint64(p.Rank())<<40 | k.next
			binary.LittleEndian.PutUint64(k.task, id)
			binary.LittleEndian.PutUint64(k.task[8:], taskCheck(id))
			if rec != nil {
				t1 = time.Now()
			}
			before := p.Now()
			err := k.q.Enqueue(k.task)
			t.lat = append(t.lat, int64(p.Now()-before))
			if rec != nil {
				t2 = time.Now()
			}
			t.attempted++
			if err != nil {
				t.failed++
			} else {
				k.sum += int64(id)
				k.count++
			}
			if rec != nil {
				rec.op("queue.produce", callEnqueue, t0, t1, t2, time.Now())
			}
			continue
		}
		if rec != nil {
			t1 = time.Now()
		}
		before := p.Now()
		task, err := k.q.Dequeue()
		t.lat = append(t.lat, int64(p.Now()-before))
		if rec != nil {
			t2 = time.Now()
		}
		if err != nil || len(task) != queueSlotSize ||
			binary.LittleEndian.Uint64(task[8:]) != taskCheck(binary.LittleEndian.Uint64(task)) {
			t.failed++
		} else {
			k.sum += int64(binary.LittleEndian.Uint64(task))
			k.count++
			t.ops++
		}
		if rec != nil {
			rec.op("queue.consume", callDequeue, t0, t1, t2, time.Now())
		}
	}
}

// verify checks the round's handoff: as many tasks consumed as produced,
// with equal checksums. A mismatch fails every task of the round.
func (k *queueRank) verify(t *tally) {
	comm := k.e.p.Comm()
	var prodN, prodSum, consN, consSum int64
	if k.producer {
		prodN, prodSum = k.count, k.sum
	} else {
		consN, consSum = k.count, k.sum
	}
	prodN = comm.AllreduceInt64(simrt.OpSum, prodN)
	prodSum = comm.AllreduceInt64(simrt.OpSum, prodSum)
	consN = comm.AllreduceInt64(simrt.OpSum, consN)
	consSum = comm.AllreduceInt64(simrt.OpSum, consSum)
	if k.e.p.Rank() == 0 && (prodN != consN || prodSum != consSum) {
		t.failed += max(prodN, consN)
	}
}

func (k *queueRank) counts() counts {
	st := k.q.Stats()
	return counts{
		enqueues: st.Enqueues, dequeues: st.Dequeues,
		polls: st.ProducerPolls + st.ConsumerPolls,
	}
}

// queueMix: per task, the producer puts the 16-byte payload and the
// 8-byte sequence word, and the consumer gets the payload and puts the
// next lap's sequence word. Ticket and poll words are read-modify-write
// operations that carry no datatype.
func queueMix(c counts, _ int64) []xfer {
	return []xfer{
		{count: queueSlotSize, weight: c.enqueues + c.dequeues},
		{count: 8, weight: c.enqueues + c.dequeues},
	}
}
