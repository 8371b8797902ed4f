package dht

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

func newWorld(t *testing.T, cfg runtime.Config) *runtime.World {
	t.Helper()
	w := runtime.NewWorld(cfg)
	t.Cleanup(w.Close)
	return w
}

func val(m *Map, seed int) []byte {
	b := make([]byte, m.ValueSize())
	for i := range b {
		b[i] = byte(seed + i)
	}
	return b
}

// TestMapBasic: every rank upserts, reads, CASes and deletes its own
// keys, then reads the other ranks' keys cross-rank.
func TestMapBasic(t *testing.T) {
	const ranks, keysPer = 4, 24
	w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 3})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		m, err := Open(s, WithBuckets(64), WithValueSize(16))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		me := p.Rank()
		key := func(r, i int) int64 { return int64(r*1000 + i) }

		for i := 0; i < keysPer; i++ {
			if err := m.Put(key(me, i), val(m, me*keysPer+i)); err != nil {
				t.Errorf("rank %d put %d: %v", me, i, err)
			}
		}
		// Read-your-writes, then overwrite and read again.
		for i := 0; i < keysPer; i++ {
			got, ok, err := m.Get(key(me, i))
			if err != nil || !ok || !bytes.Equal(got, val(m, me*keysPer+i)) {
				t.Errorf("rank %d get %d: got %v ok=%v err=%v", me, i, got, ok, err)
			}
		}
		if err := m.Put(key(me, 0), val(m, 200+me)); err != nil {
			t.Errorf("rank %d overwrite: %v", me, err)
		}
		if got, ok, _ := m.Get(key(me, 0)); !ok || !bytes.Equal(got, val(m, 200+me)) {
			t.Errorf("rank %d overwrite read back %v ok=%v", me, got, ok)
		}

		// CAS: wrong expectation fails, right one lands.
		if swapped, err := m.CAS(key(me, 1), val(m, 99), val(m, 77)); err != nil || swapped {
			t.Errorf("rank %d CAS with stale expect: swapped=%v err=%v", me, swapped, err)
		}
		if swapped, err := m.CAS(key(me, 1), val(m, me*keysPer+1), val(m, 150+me)); err != nil || !swapped {
			t.Errorf("rank %d CAS: swapped=%v err=%v", me, swapped, err)
		}
		if got, ok, _ := m.Get(key(me, 1)); !ok || !bytes.Equal(got, val(m, 150+me)) {
			t.Errorf("rank %d CAS read back %v ok=%v", me, got, ok)
		}

		// Delete: present once, gone after.
		if hit, err := m.Delete(key(me, 2)); err != nil || !hit {
			t.Errorf("rank %d delete: hit=%v err=%v", me, hit, err)
		}
		if hit, err := m.Delete(key(me, 2)); err != nil || hit {
			t.Errorf("rank %d double delete: hit=%v err=%v", me, hit, err)
		}
		if _, ok, _ := m.Get(key(me, 2)); ok {
			t.Errorf("rank %d get after delete still present", me)
		}
		// CAS on an absent key is a clean miss.
		if swapped, err := m.CAS(key(me, 2), val(m, 1), val(m, 2)); err != nil || swapped {
			t.Errorf("rank %d CAS absent: swapped=%v err=%v", me, swapped, err)
		}

		p.Barrier()
		// Cross-rank reads of everyone's surviving keys.
		for r := 0; r < ranks; r++ {
			want := map[int][]byte{0: val(m, 200+r), 1: val(m, 150+r)}
			for i := 3; i < keysPer; i++ {
				want[i] = val(m, r*keysPer+i)
			}
			for i, exp := range want {
				got, ok, err := m.Get(key(r, i))
				if err != nil || !ok || !bytes.Equal(got, exp) {
					t.Errorf("rank %d reading rank %d key %d: %v ok=%v err=%v", me, r, i, got, ok, err)
				}
			}
			if _, ok, _ := m.Get(key(r, 2)); ok {
				t.Errorf("rank %d sees rank %d's deleted key", me, r)
			}
		}
		if st := m.Stats(); st.Gets == 0 || st.Puts == 0 {
			t.Errorf("rank %d stats never moved: %+v", me, st)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapProbeWrapAndFull: a 2x2-bucket table forces probe chains across
// the stripe boundary and a clean ErrTableFull when the fifth key
// arrives.
func TestMapProbeWrapAndFull(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 5})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		m, err := Open(s, WithBuckets(2), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		if p.Rank() != 0 {
			p.Barrier()
			return
		}
		for k := int64(0); k < 4; k++ {
			if err := m.Put(k, val(m, int(k))); err != nil {
				t.Errorf("put %d into 4-bucket table: %v", k, err)
			}
		}
		if err := m.Put(99, val(m, 99)); !errors.Is(err, ErrTableFull) {
			t.Errorf("fifth key: got %v, want ErrTableFull", err)
		}
		for k := int64(0); k < 4; k++ {
			if got, ok, err := m.Get(k); err != nil || !ok || !bytes.Equal(got, val(m, int(k))) {
				t.Errorf("get %d: %v ok=%v err=%v", k, got, ok, err)
			}
		}
		// A tombstone frees capacity without breaking the probe chains
		// threaded through it.
		if hit, _ := m.Delete(1); !hit {
			t.Error("delete(1) missed")
		}
		if err := m.Put(99, val(m, 99)); err != nil {
			t.Errorf("put into tombstone: %v", err)
		}
		for _, k := range []int64{0, 2, 3, 99} {
			if _, ok, err := m.Get(k); err != nil || !ok {
				t.Errorf("get %d after tombstone reuse: ok=%v err=%v", k, ok, err)
			}
		}
		if st := m.Stats(); st.ProbeSteps == 0 {
			t.Errorf("4 keys in 4 buckets never probed: %+v", st)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapContention: every rank CAS-increments the same counter key until
// each has landed `eachWins` increments; the final value must be exactly
// ranks*eachWins — the mutual-exclusion acceptance test for the bucket
// lock/version protocol.
func TestMapContention(t *testing.T) {
	const ranks, eachWins = 4, 8
	w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 11})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		m, err := Open(s, WithBuckets(16), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		enc := func(v int64) []byte {
			b := make([]byte, 8)
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
			return b
		}
		dec := func(b []byte) int64 {
			var v int64
			for i := 7; i >= 0; i-- {
				v = v<<8 | int64(b[i])
			}
			return v
		}
		const key = int64(42)
		if p.Rank() == 0 {
			if err := m.Put(key, enc(0)); err != nil {
				t.Errorf("seed put: %v", err)
			}
		}
		p.Barrier()
		for wins := 0; wins < eachWins; {
			cur, ok, err := m.Get(key)
			if err != nil || !ok {
				t.Errorf("rank %d get counter: ok=%v err=%v", p.Rank(), ok, err)
				panic("dht: counter vanished")
			}
			swapped, err := m.CAS(key, cur, enc(dec(cur)+1))
			if err != nil {
				t.Errorf("rank %d CAS: %v", p.Rank(), err)
				panic("dht: CAS failed")
			}
			if swapped {
				wins++
			}
		}
		p.Barrier()
		got, ok, err := m.Get(key)
		if err != nil || !ok || dec(got) != ranks*eachWins {
			t.Errorf("rank %d final counter = %d ok=%v err=%v, want %d", p.Rank(), dec(got), ok, err, ranks*eachWins)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// chaosPlans mirrors the core fault matrix: drop, dup, delay, corrupt —
// every plan must converge to the fault-free run's exact table bytes.
func chaosPlans() []struct {
	name string
	plan *simnet.FaultPlan
} {
	return []struct {
		name string
		plan *simnet.FaultPlan
	}{
		{"fault-free", nil},
		{"drop", &simnet.FaultPlan{
			Seed:    2001,
			Default: simnet.LinkFaults{Drop: 0.06},
		}},
		{"drop+dup", &simnet.FaultPlan{
			Seed:    2002,
			Default: simnet.LinkFaults{Drop: 0.04, Dup: 0.12},
		}},
		{"drop+dup+delay+corrupt", &simnet.FaultPlan{
			Seed: 2003,
			Default: simnet.LinkFaults{
				Drop: 0.03, Dup: 0.06, Corrupt: 0.03,
				Delay: 0.15, DelayBy: 4 * time.Microsecond,
			},
		}},
	}
}

// runMapChaos executes the deterministic-placement workload under one
// fault plan and returns every stripe's final bytes. Placement is made
// interleaving-independent by inserting in barrier-separated rounds
// (rank r inserts during round r); the update storm then works on
// disjoint keys, so retries change nothing: converged bytes — including
// version words — depend only on the operation multiset.
func runMapChaos(t *testing.T, plan *simnet.FaultPlan) []byte {
	t.Helper()
	const ranks, keysPer, updates = 4, 16, 8
	w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 7, Faults: plan})
	var final bytes.Buffer
	stripeBytes := make([][]byte, ranks)
	err := w.Run(func(p *runtime.Proc) {
		var s *rma.Session
		if plan != nil {
			s = rma.Open(p, rma.WithFaults(plan))
		} else {
			s = rma.Open(p)
		}
		m, err := Open(s, WithBuckets(32), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht chaos: open failed")
		}
		me := p.Rank()
		key := func(r, i int) int64 { return int64(r*1000 + i) }

		// Deterministic placement: only rank r inserts in round r.
		for round := 0; round < ranks; round++ {
			if me == round {
				for i := 0; i < keysPer; i++ {
					if err := m.Put(key(me, i), val(m, me+i)); err != nil {
						t.Errorf("rank %d insert %d: %v", me, i, err)
						panic("dht chaos: insert failed")
					}
				}
			}
			p.Barrier()
		}
		// Disjoint-key update storm: no barriers, any interleaving.
		for u := 0; u < updates; u++ {
			for i := 0; i < keysPer; i++ {
				if err := m.Put(key(me, i), val(m, me+i+u+1)); err != nil {
					t.Errorf("rank %d update %d/%d: %v", me, u, i, err)
					panic("dht chaos: update failed")
				}
			}
		}
		// One delete per rank exercises tombstones deterministically.
		if hit, err := m.Delete(key(me, 0)); err != nil || !hit {
			t.Errorf("rank %d delete: hit=%v err=%v", me, hit, err)
		}
		p.Barrier()
		stripeBytes[me] = p.Mem().Snapshot(m.Local().Offset, m.PerRank()*(valOff+m.ValueSize()))
		for b := 0; b < m.PerRank(); b++ {
			word := int64(binary.LittleEndian.Uint64(stripeBytes[me][b*(valOff+m.ValueSize()):]))
			if word&waitBit != 0 {
				t.Errorf("rank %d bucket %d converged with the waiter bit set: %#x", me, b, word)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		final.Write(stripeBytes[r])
	}
	return final.Bytes()
}

// TestMapChaosMatrix: the table's converged bytes under every fault plan
// must equal the fault-free run's, byte for byte.
func TestMapChaosMatrix(t *testing.T) {
	plans := chaosPlans()
	want := runMapChaos(t, plans[0].plan)
	if len(want) == 0 {
		t.Fatal("fault-free run produced no stripe bytes")
	}
	for _, tc := range plans[1:] {
		t.Run(tc.name, func(t *testing.T) {
			got := runMapChaos(t, tc.plan)
			if !bytes.Equal(got, want) {
				diffs := 0
				for i := range got {
					if got[i] != want[i] {
						diffs++
					}
				}
				t.Errorf("table diverged under %s: %d/%d bytes differ", tc.name, diffs, len(want))
			}
		})
	}
}

// TestMapRankDeath: a stripe owner dies mid-storm; buddy replication
// rebuilds its stripe onto the spare and clients — armed with
// WithFailover — keep completing and then read back every key they wrote,
// including the ones living on the rebuilt stripe.
func TestMapRankDeath(t *testing.T) {
	const (
		ranks   = 4
		victim  = 1
		keysPer = 12
		rounds  = 30
	)
	plan := &simnet.FaultPlan{
		Seed:      7,
		RankKills: []simnet.RankKill{{Rank: victim, At: vtime.Time(300 * time.Microsecond)}},
	}
	w := newWorld(t, runtime.Config{Ranks: ranks, Spares: 1, Seed: 7, Faults: plan})
	failovers := make([]int64, ranks)
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithReplication())
		if p.IsSpare() {
			// Parked: the buddy replays the victim's regions onto this
			// rank's NIC agent; the process function has nothing to do.
			return
		}
		m, err := Open(s, WithBuckets(64), WithValueSize(8), WithFailover())
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht rankdeath: open failed")
		}
		me := p.Rank()
		if me == victim {
			// Pure stripe server from here on: its NIC applies and
			// replicates until the kill blackholes it. Returning early
			// keeps the test's surviving clients honest — nobody waits on
			// the victim's process function.
			return
		}
		key := func(i int) int64 { return int64(me*1000 + i) }
		// Write storm spanning the kill: every round overwrites the same
		// keys, so rank death surfaces inside Map operations and failover
		// must retarget mid-traffic.
		for round := 0; round < rounds; round++ {
			for i := 0; i < keysPer; i++ {
				if err := m.Put(key(i), val(m, me+i+round)); err != nil {
					t.Errorf("rank %d round %d put: %v", me, round, err)
					panic("dht rankdeath: put failed")
				}
			}
			p.Advance(vtime.Duration(20 * time.Microsecond))
		}
		// Every key must read back its final round's value — wherever its
		// bucket now lives.
		for i := 0; i < keysPer; i++ {
			got, ok, err := m.Get(key(i))
			if err != nil || !ok || !bytes.Equal(got, val(m, me+i+rounds-1)) {
				t.Errorf("rank %d key %d after death: %v ok=%v err=%v", me, i, got, ok, err)
			}
		}
		failovers[me] = m.Stats().Failovers
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range failovers {
		total += f
	}
	if total == 0 {
		t.Fatal("no client ever failed over; the kill landed outside the workload")
	}
	if w.Net().FaultsBlackholed.Value() == 0 {
		t.Fatal("rank kill blackholed nothing")
	}
}

// TestMapOpenValidation: bad geometry is rejected before any collective
// traffic.
func TestMapOpenValidation(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 1})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		for i, opts := range [][]Option{
			{WithBuckets(0)},
			{WithValueSize(-1)},
			{WithServers(3)},
		} {
			if _, err := Open(s, opts...); !errors.Is(err, rma.ErrBadHandle) {
				t.Errorf("case %d: got %v, want ErrBadHandle", i, err)
			}
		}
		// Wrong value length on a good map.
		m, err := Open(s, WithBuckets(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		if err := m.Put(1, make([]byte, m.ValueSize()+1)); !errors.Is(err, rma.ErrType) {
			t.Errorf("oversized value: got %v, want ErrType", err)
		}
		if _, err := m.CAS(1, make([]byte, 1), make([]byte, m.ValueSize())); !errors.Is(err, rma.ErrType) {
			t.Errorf("undersized CAS expect: got %v, want ErrType", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapMetricsRegistered: with session metrics on, the map's counters
// and latency histogram appear under their dotted names.
func TestMapMetricsRegistered(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 2})
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithMetrics())
		m, err := Open(s, WithBuckets(16))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		if err := m.Put(int64(p.Rank()), val(m, 1)); err != nil {
			t.Errorf("put: %v", err)
		}
		if _, _, err := m.Get(int64(p.Rank())); err != nil {
			t.Errorf("get: %v", err)
		}
		reg := s.Metrics()
		if c := reg.Counter("dht.puts"); c == nil || c.Value() == 0 {
			t.Error("dht.puts missing or zero")
		}
		if h := reg.Histogram("latency.dht.request"); h.Count() == 0 {
			t.Error("latency.dht.request recorded nothing")
		}
		for i := 0; i < m.Servers(); i++ {
			if reg.Counter(fmt.Sprintf("dht.contention.stripe.%d", i)) == nil {
				t.Errorf("dht.contention.stripe.%d unregistered", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// stormValue encodes a 24-byte storm value: x, its complement (a torn or
// mixed write breaks the pair) and the bucket version the writer expects
// the value to be published at (0 when the writer cannot know it).
func stormValue(x, version uint64) []byte {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint64(b[0:], x)
	binary.LittleEndian.PutUint64(b[8:], ^x)
	binary.LittleEndian.PutUint64(b[16:], version)
	return b
}

func stormDecode(b []byte) (x, version uint64, intact bool) {
	x = binary.LittleEndian.Uint64(b[0:])
	return x, binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[8:]) == ^x
}

// stormResult is one storm rank's account.
type stormResult struct {
	writes int64 // successful Puts, CAS wins and versioned writes
	st     Stats
	word   int64 // the hot bucket's final word (rank 0)
}

// versionedWrite is Put's in-place update path with a value that names
// the version it is published at, so readers can prove they never see a
// full word with older value bytes.
func versionedWrite(m *Map, key int64, x uint64) error {
	sr, off := m.locate(m.home(key))
	for {
		w, k, err := m.snapshot(sr, off)
		if err != nil {
			return err
		}
		if k != key {
			return fmt.Errorf("hot bucket holds key %d", k)
		}
		if wordState(w) == stateLocked {
			if err := m.park(sr, off, w); err != nil {
				return err
			}
			continue
		}
		locked, claimed, err := m.claim(sr, off, w)
		if err != nil {
			return err
		}
		if !claimed {
			continue
		}
		next := pack(wordVersion(w)+2, stateFull)
		m.p.WriteLocal(m.kv, 0, stormValue(x, uint64(wordVersion(next))))
		return m.finish(sr, off, m.kv, m.valSize, valOff, locked, next)
	}
}

// checkedRead snapshots the hot bucket and fails on a full word whose
// value bytes are torn or belong to another version.
func checkedRead(m *Map, key int64) error {
	sr, off := m.locate(m.home(key))
	w, k, err := m.snapshot(sr, off)
	if err != nil {
		return err
	}
	if wordState(w) != stateFull || k != key {
		return nil
	}
	_, ver, intact := stormDecode(m.p.ReadLocal(m.buf, valOff, m.valSize))
	if !intact {
		return fmt.Errorf("full word %#x over mixed value bytes", w)
	}
	if ver != 0 && ver != uint64(wordVersion(w)) {
		return fmt.Errorf("full word at version %d over value bytes published at version %d", wordVersion(w), ver)
	}
	return nil
}

const tagStorm = 78

// holdUntilParked claims key's bucket, lets every other rank loose on it
// (tagStorm), and releases it with a versioned write once all of them
// have registered in the stripe's waiter slots and the waiter bit is set.
func holdUntilParked(m *Map, key int64, waiters int) error {
	sr, off := m.locate(m.home(key))
	w, _, err := m.snapshot(sr, off)
	if err != nil {
		return err
	}
	locked, claimed, err := m.claim(sr, off, w)
	if err != nil || !claimed {
		return fmt.Errorf("claim: claimed=%v err=%v", claimed, err)
	}
	for r := 0; r < m.p.Size(); r++ {
		if r != m.p.Rank() {
			m.p.Send(r, tagStorm, nil)
		}
	}
	bucket := uint32(off/m.bucketSz + 1)
	for {
		cur, _, err := m.snapshot(sr, off)
		if err != nil {
			return err
		}
		if _, err := m.s.Get(m.slots, m.p.Size(), rma.Int64, m.stripes[sr], m.slotsOff, rma.WithBlocking()); err != nil {
			return err
		}
		raw := m.p.ReadLocal(m.slots, 0, 8*m.p.Size())
		n := 0
		for r := 0; r < m.p.Size(); r++ {
			if uint32(m.dec64(raw[8*r:])) == bucket {
				n++
			}
		}
		if n == waiters && cur&waitBit != 0 {
			break
		}
	}
	next := pack(wordVersion(w)+2, stateFull)
	m.p.WriteLocal(m.kv, 0, stormValue(0, uint64(wordVersion(next))))
	return m.finish(sr, off, m.kv, m.valSize, valOff, locked, next)
}

// runHotKeyStorm has every rank mix Get, CAS, Put and versioned writes on
// one key, then returns each rank's account. It fails the test on any
// torn, mixed or stale read and on a storm that outlives its watchdog.
func runHotKeyStorm(t *testing.T, opts ...rma.SessionOption) []stormResult {
	t.Helper()
	const ranks, iters = 5, 150
	const key = int64(7)
	w := newWorld(t, runtime.Config{Ranks: ranks, Seed: 41})
	res := make([]stormResult, ranks)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *runtime.Proc) {
			s := rma.Open(p, opts...)
			m, err := Open(s, WithBuckets(8), WithValueSize(24))
			if err != nil {
				t.Errorf("open: %v", err)
				panic("dht storm: open failed")
			}
			me := p.Rank()
			fail := func(op string, err error) {
				t.Errorf("rank %d %s: %v", me, op, err)
				panic("dht storm: " + op)
			}
			if me == 0 {
				if err := m.Put(key, stormValue(0, 0)); err != nil {
					fail("seed put", err)
				}
			}
			p.Barrier()
			r := &res[me]
			// However the host schedules the ranks, the storm opens with
			// every other rank parked on a held lock.
			if me == 0 {
				if err := holdUntilParked(m, key, ranks-1); err != nil {
					fail("opening hold", err)
				}
				r.writes++
			} else {
				p.Recv(0, tagStorm)
			}
			for i := 0; i < iters; i++ {
				x := uint64(me)<<32 | uint64(i)
				switch (i + me) % 4 {
				case 0:
					got, ok, err := m.Get(key)
					if err != nil || !ok {
						fail("get", fmt.Errorf("ok=%v err=%v", ok, err))
					}
					if _, _, intact := stormDecode(got); !intact {
						fail("get", fmt.Errorf("mixed value bytes %x", got))
					}
				case 1:
					cur, ok, err := m.Get(key)
					if err != nil || !ok {
						fail("cas read", fmt.Errorf("ok=%v err=%v", ok, err))
					}
					swapped, err := m.CAS(key, cur, stormValue(x, 0))
					if err != nil {
						fail("cas", err)
					}
					if swapped {
						r.writes++
					}
				case 2:
					if err := m.Put(key, stormValue(x, 0)); err != nil {
						fail("put", err)
					}
					r.writes++
				default:
					if err := versionedWrite(m, key, x); err != nil {
						fail("versioned write", err)
					}
					r.writes++
				}
				if err := checkedRead(m, key); err != nil {
					fail("checked read", err)
				}
			}
			p.Barrier()
			r.st = m.Stats()
			if me == 0 {
				sr, off := m.locate(m.home(key))
				word, _, err := m.snapshot(sr, off)
				if err != nil {
					fail("final read", err)
				}
				r.word = word
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("storm wedged: a parked waiter was never woken")
	}
	return res
}

// checkStorm verifies a storm's account: the hot word counts every write
// exactly once (each bumps the version by two on top of the insert's
// two), no waiter bit survives, and the storm parked. A lost wake shows
// as runHotKeyStorm's watchdog firing.
func checkStorm(t *testing.T, res []stormResult) {
	t.Helper()
	var writes, parks int64
	for _, r := range res {
		writes += r.writes
		parks += r.st.LockRetries
	}
	word := res[0].word
	if wordState(word) != stateFull || word&waitBit != 0 {
		t.Fatalf("hot word %#x: want full with the waiter bit clear", word)
	}
	if got, want := wordVersion(word), 2+2*writes; got != want {
		t.Errorf("hot word at version %d after %d writes, want %d", got, writes, want)
	}
	if parks == 0 {
		t.Error("the storm never parked; the notified wait went unexercised")
	}
}

// TestMapHotKeyStorm: ranks mix Put, CAS and Get on one key; waiters
// park instead of polling and every one of them is woken.
func TestMapHotKeyStorm(t *testing.T) {
	checkStorm(t, runHotKeyStorm(t))
}

// TestMapHotKeyStormSharded: the same storm against sharded applies. The
// ordered release may not overtake the value put on the designated-shard
// path: no reader ever sees a full word over stale or mixed value bytes.
func TestMapHotKeyStormSharded(t *testing.T) {
	checkStorm(t, runHotKeyStorm(t, rma.WithApplyShards(4)))
}

// Ranks of the owner-death scenarios below.
const (
	deathRanks  = 4
	deathVictim = 1 // the stripe owner that dies
	deathHolder = 2 // holds the bucket lock across the death
	deathWaiter = 3 // parks on the held bucket
	tagHeld     = 77
)

// runOwnerDeath runs one owner-death scenario on a replicated, failover
// map: a key homed on the victim's stripe, the victim killed at killAt.
// The victim sends the holder its exposure's base offset, so the holder
// can watch the lock word from the host (remote polls would advance its
// clock past the kill), and then serves passively. holder and waiter run
// on their ranks; the scenario must end within the watchdog.
func runOwnerDeath(t *testing.T, killAt vtime.Time, holder func(m *Map, key int64, watch func() int64), waiter func(m *Map, key int64)) {
	t.Helper()
	plan := &simnet.FaultPlan{Seed: 5, RankKills: []simnet.RankKill{{Rank: deathVictim, At: killAt}}}
	w := newWorld(t, runtime.Config{Ranks: deathRanks, Spares: 1, Seed: 5, Faults: plan})
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *runtime.Proc) {
			s := rma.Open(p, rma.WithReplication())
			if p.IsSpare() {
				return
			}
			m, err := Open(s, WithBuckets(16), WithValueSize(8), WithFailover())
			if err != nil {
				t.Errorf("open: %v", err)
				panic("dht owner death: open failed")
			}
			key := int64(0)
			for ; key < 1000; key++ {
				if sr, _ := m.locate(m.home(key)); sr == deathVictim {
					break
				}
			}
			switch p.Rank() {
			case deathVictim:
				base := make([]byte, 8)
				binary.LittleEndian.PutUint64(base, uint64(m.Local().Offset))
				p.Send(deathHolder, tagHeld, base)
			case deathHolder:
				base, _ := p.Recv(deathVictim, tagHeld)
				_, off := m.locate(m.home(key))
				wordAt := int(binary.LittleEndian.Uint64(base)) + off + wordOff
				holder(m, key, func() int64 {
					return int64(binary.LittleEndian.Uint64(w.Proc(deathVictim).Mem().Snapshot(wordAt, 8)))
				})
			case deathWaiter:
				waiter(m, key)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("owner-death scenario wedged: a parked operation never returned")
	}
}

// awaitParked blocks the holder until a waiter has set the waiter bit on
// the held word, watching it from the host.
func awaitParked(watch func() int64) {
	for watch()&waitBit == 0 {
		time.Sleep(10 * time.Microsecond)
	}
}

// parkedReader is the waiter side of both owner-death scenarios: it
// parks on the held bucket, must come back with want, and reports its
// stats.
func parkedReader(t *testing.T, want []byte, st *Stats) func(m *Map, key int64) {
	return func(m *Map, key int64) {
		m.p.Recv(deathHolder, tagHeld)
		got, ok, err := m.Get(key)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Errorf("parked reader after owner death: %v ok=%v err=%v, want %v", got, ok, err, want)
		}
		*st = m.Stats()
	}
}

// TestMapParkedWaiterOwnerDeath: a reader parks on a locked bucket, the
// holder's release never wakes it, and the stripe owner dies. The owner's
// failure wakes the waiter, which fails over to the rebuilt stripe and
// reads the released value there — in bounded time.
func TestMapParkedWaiterOwnerDeath(t *testing.T) {
	killAt := vtime.Time(200 * time.Microsecond)
	var waiterStats Stats
	holder := func(m *Map, key int64, watch func() int64) {
		if err := m.Put(key, val(m, 1)); err != nil {
			t.Errorf("holder insert: %v", err)
			panic("dht owner death: insert failed")
		}
		sr, off := m.locate(m.home(key))
		word, _, err := m.snapshot(sr, off)
		if err != nil {
			t.Errorf("holder snapshot: %v", err)
			panic("dht owner death: snapshot failed")
		}
		locked, claimed, err := m.claim(sr, off, word)
		if err != nil || !claimed {
			t.Errorf("holder claim: claimed=%v err=%v", claimed, err)
			panic("dht owner death: claim failed")
		}
		m.p.Send(deathWaiter, tagHeld, nil)
		awaitParked(watch)
		// Release without waking anyone, as when the release lands and
		// is replicated but the dying owner never answers: the holder
		// learns nothing about waiters, so only the owner's failure can
		// wake the reader.
		m.p.WriteLocal(m.kv, 0, val(m, 2))
		if _, err := m.s.PutNotify(m.kv, m.valSize, rma.Byte, m.stripes[sr], off+valOff, m.seq...); err != nil {
			t.Errorf("holder value put: %v", err)
			panic("dht owner death: value put failed")
		}
		if _, err := m.release(sr, off, locked, pack(wordVersion(word)+2, stateFull), false); err != nil {
			t.Errorf("holder release: %v", err)
			panic("dht owner death: release failed")
		}
		// Then talk to the owner after its death, which detects it.
		m.p.Advance(vtime.Duration(2 * killAt))
		if _, _, err := m.snapshot(sr, off); err != nil {
			t.Errorf("holder read across the death: %v", err)
		}
	}
	runOwnerDeath(t, killAt, holder, func(m *Map, key int64) {
		parkedReader(t, val(m, 2), &waiterStats)(m, key)
	})
	if waiterStats.LockRetries == 0 {
		t.Error("the reader never parked; the scenario went unexercised")
	}
	if waiterStats.Failovers == 0 {
		t.Error("the parked reader never failed over")
	}
}

// TestMapRetriedClaimWithWaiter: a writer's claim lands at the stripe
// owner but the writer never learns it (the owner dies before answering),
// and a reader parks on that lock, setting the waiter bit. The writer's
// failover retry of the claim then finds its own lock word with the bit
// set; it must still own the claim, finish the write and wake the reader,
// instead of taking the bit for a lost race and parking on its own lock.
func TestMapRetriedClaimWithWaiter(t *testing.T) {
	killAt := vtime.Time(200 * time.Microsecond)
	var waiterStats, holderStats Stats
	claimed := false
	holder := func(m *Map, key int64, watch func() int64) {
		if err := m.Put(key, val(m, 1)); err != nil {
			t.Errorf("holder insert: %v", err)
			panic("dht retried claim: insert failed")
		}
		sr, off := m.locate(m.home(key))
		word, _, err := m.snapshot(sr, off)
		if err != nil {
			t.Errorf("holder snapshot: %v", err)
			panic("dht retried claim: snapshot failed")
		}
		// The first attempt of the claim: applied and replicated, its
		// answer thrown away as if lost with the owner.
		locked := pack(wordVersion(word)+1, stateLocked)
		if old, err := m.s.CompareSwap(m.stripes[sr], off+wordOff, word, locked); err != nil || old != word {
			t.Errorf("holder first claim attempt: old=%#x err=%v", old, err)
			panic("dht retried claim: first attempt failed")
		}
		m.p.Send(deathWaiter, tagHeld, nil)
		awaitParked(watch)
		// The retry runs after the death: it fails at the dead owner and
		// goes through failover to the rebuilt stripe.
		m.p.Advance(vtime.Duration(2 * killAt))
		var got int64
		got, claimed, err = m.claim(sr, off, word)
		if err != nil || got != locked {
			t.Errorf("holder retried claim: locked=%#x err=%v, want %#x", got, err, locked)
			panic("dht retried claim: retry failed")
		}
		// Finish either way, so a wrong answer fails the test instead of
		// wedging it.
		m.p.WriteLocal(m.kv, 0, val(m, 2))
		if err := m.finish(sr, off, m.kv, m.valSize, valOff, locked, pack(wordVersion(word)+2, stateFull)); err != nil {
			t.Errorf("holder finish: %v", err)
		}
		holderStats = m.Stats()
	}
	runOwnerDeath(t, killAt, holder, func(m *Map, key int64) {
		parkedReader(t, val(m, 2), &waiterStats)(m, key)
	})
	if !claimed {
		t.Error("retried claim over its own lock word with the waiter bit set was taken for a lost race")
	}
	if holderStats.Failovers == 0 {
		t.Error("the claim never went through failover; the scenario went unexercised")
	}
	if waiterStats.LockRetries == 0 {
		t.Error("the reader never parked; the scenario went unexercised")
	}
}
