package main

import (
	"fmt"
	"time"

	"mpi3rma/internal/telemetry"
)

// traced runs the workload twice on one world, untraced and then traced,
// each for half the budget, and derives the per-layer metrics. Counters
// and GC figures come from the untraced phase; layer-call times, the CPU
// profile and the critical path come from the traced one.
func traced(w *workload, seed int64, budget time.Duration, outDir string) (result, error) {
	recs := newRecorders(w.ranks, time.Now())
	h := newHarness(w, seed)
	plain := &phase{budget: budget / 2}
	tr := &phase{budget: budget / 2, minSamples: minLatencySamples, traced: true}
	if err := h.run(1, []*phase{plain, tr}, recs); err != nil {
		return result{}, err
	}
	cpu, cpuSamples, err := attributeCPU(tr.profile.Bytes())
	if err != nil {
		return result{}, err
	}
	probe, err := probeDatatype(w.mix(plain.layerCounts, plain.ops))
	if err != nil {
		return result{}, fmt.Errorf("datatype probe: %w", err)
	}
	path, nspans, err := writeSpans(outDir, w.name, seed, recs)
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}

	m := map[string]metric{}
	var cpuSum float64
	for _, l := range cpuLayers {
		m[l+".cpu_pct"] = metric{cpu[l], "%"}
		cpuSum += cpu[l]
	}
	m["datatype.compatible_ns"] = metric{probe.compatibleNs, "ns"}
	m["datatype.pack_ns"] = metric{probe.packNs, "ns"}
	m["datatype.unpack_ns"] = metric{probe.unpackNs, "ns"}
	m["datatype.allocs_per_xfer"] = metric{probe.allocsPerXfer, "allocs"}
	m["setup.world_s"] = metric{median(h.worlds).Seconds(), "s"}

	ops := max(plain.ops, 1)
	m["core.logical_ops_per_msg"] = metric{ratio(plain.logicalOps, plain.msgs), "ops/msg"}
	m["simnet.msgs_per_op"] = metric{float64(plain.msgs) / float64(ops), "msgs"}
	m["simnet.bytes_per_op"] = metric{float64(plain.bytes) / float64(ops), "B"}

	// A layer-call percentile with fewer than minBeyond samples beyond it
	// (or a layer this workload never calls) reads 0.
	calls := func(name string, call callKind, pcts ...int) {
		s := callSamples(recs, call)
		fmt.Printf("layer %s: %d calls timed\n", callNames[call], len(s))
		for _, pc := range pcts {
			key := fmt.Sprintf("%s_ns_p%d", name, pc)
			v, beyond := percentile(s, float64(pc)/100)
			if beyond < 0 {
				v = 0
				if len(s) > 0 {
					fmt.Printf("layer %s: too few samples beyond it; reads 0\n", key)
				}
			}
			m[key] = metric{float64(v), "ns"}
		}
	}
	calls("rma.put_issue", callSessionPut, 50)
	calls("rma.complete", callSessionComplete, 50, 99)
	calls("dht.get", callMapGet, 50, 99)
	calls("dht.put", callMapPut, 50, 99)
	calls("queue.enqueue", callEnqueue, 50)
	calls("queue.dequeue", callDequeue, 50)

	lc := plain.layerCounts
	var dhtOps int64
	if lc.gets+lc.puts > 0 {
		dhtOps = ops
	}
	perDHTOp := func(v int64) float64 {
		if dhtOps == 0 {
			return 0
		}
		return float64(v) / float64(dhtOps)
	}
	m["dht.lock_retries_per_op"] = metric{perDHTOp(lc.lockRetries), "retries"}
	m["dht.claim_races_per_op"] = metric{perDHTOp(lc.casRaces), "races"}
	m["dht.probe_steps_per_op"] = metric{perDHTOp(lc.probeSteps), "steps"}
	m["dht.useful_ratio"] = metric{ratio(dhtOps, dhtOps+lc.lockRetries+lc.casRaces), "ratio"}
	var contTotal, contMax int64
	for _, c := range lc.contention {
		contTotal += c
		contMax = max(contMax, c)
	}
	m["dht.hot_stripe_pct"] = metric{100 * ratio(contMax, contTotal), "%"}
	m["queue.polls_per_handoff"] = metric{ratio(lc.polls, lc.dequeues), "polls"}

	m["gc.cycles_per_kop"] = metric{1000 * float64(plain.gcs) / float64(ops), "cycles"}
	m["gc.pause_ms"] = metric{ratio(int64(plain.pauseNs), plain.gcs) / 1e6, "ms"}

	rep := tr.crit
	share := func(stage string) float64 {
		for _, st := range rep.Stages {
			if st.Stage == stage {
				return 100 * ratio(st.Total, rep.TotalVTime)
			}
		}
		return 0
	}
	m["critpath.wire_pct"] = metric{share(telemetry.StageWire), "%"}
	m["critpath.shard_queue_pct"] = metric{share(telemetry.StageShardQueue), "%"}
	m["critpath.apply_pct"] = metric{share(telemetry.StageApply), "%"}
	m["critpath.ack_notify_pct"] = metric{share(telemetry.StageAckNotify), "%"}

	plainRate, tracedRate := simOpsPerSec(plain.rounds), simOpsPerSec(tr.rounds)
	m["trace.overhead_pct"] = metric{100 * (plainRate - tracedRate) / plainRate, "%"}

	fmt.Printf("trace: untraced sim_ops_per_s=%.1f (%d rounds), traced sim_ops_per_s=%.1f (%d rounds), overhead %.2f%%\n",
		plainRate, len(plain.rounds), tracedRate, len(tr.rounds), m["trace.overhead_pct"].Value)
	fmt.Printf("cpu profile: %d samples over %.2fs traced, layer shares sum to %.2f%%\n", cpuSamples, tr.wall.Seconds(), cpuSum)
	fmt.Printf("critical path: %d spans, %d reconciled, %d mismatched\n", rep.Spans, rep.Reconciled, rep.Mismatched)
	fmt.Printf("dht: %d gets, %d puts, %d probe steps, %d lock retries, %d claim races, stripe contention %v\n",
		lc.gets, lc.puts, lc.probeSteps, lc.lockRetries, lc.casRaces, lc.contention)
	fmt.Printf("queue: %d enqueues, %d dequeues, %d polls\n", lc.enqueues, lc.dequeues, lc.polls)
	fmt.Printf("spans: %d written to %s\n", nspans, path)

	attempted := plain.attempted + tr.attempted
	failed := plain.failed + tr.failed
	fmt.Printf("metric %-28s %16.6g %s\n", "fail_ratio", ratio(failed, attempted), "ratio")
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
