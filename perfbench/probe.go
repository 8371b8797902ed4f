package main

import (
	goruntime "runtime"
	"slices"
	"time"

	"mpi3rma/internal/datatype"
)

// probeBatch is the minimum wall time of one timed batch of the probe.
const probeBatch = 20 * time.Millisecond

// xfer is one (count, datatype) transfer shape a workload issues, with how
// many times it issued it. Every workload transfers rma.Byte elements.
type xfer struct {
	count  int
	weight int64
}

type probeResult struct {
	compatibleNs, packNs, unpackNs float64
	allocsPerXfer                  float64
}

// sinkBool keeps the compiler from discarding probed calls.
var sinkBool bool

// probeDatatype times the datatype layer's public functions from outside,
// on the workload's own transfer mix. The engine checks signatures with
// one Compatible, packs with one PackInto and unpacks with one Unpack per
// transfer; the result is the mean over the mix, weighted by how often
// the workload issued each shape.
func probeDatatype(mix []xfer) (probeResult, error) {
	var res probeResult
	var total int64
	for _, x := range mix {
		total += x.weight
	}
	if total == 0 {
		return res, nil
	}
	for _, x := range mix {
		if x.weight == 0 {
			continue
		}
		share := float64(x.weight) / float64(total)
		src := make([]byte, x.count)
		for i := range src {
			src[i] = byte(i)
		}
		wire := make([]byte, datatype.PackedSize(x.count, datatype.Byte))
		dst := make([]byte, x.count)
		var callErr error
		compatible := func() { sinkBool = datatype.Compatible(x.count, datatype.Byte, x.count, datatype.Byte) }
		pack := func() {
			if err := datatype.PackInto(wire, src, x.count, datatype.Byte, datatype.LittleEndian); err != nil {
				callErr = err
			}
		}
		unpack := func() {
			if err := datatype.Unpack(dst, wire, x.count, datatype.Byte, datatype.LittleEndian); err != nil {
				callErr = err
			}
		}
		res.compatibleNs += share * nsPerCall(compatible)
		res.packNs += share * nsPerCall(pack)
		res.unpackNs += share * nsPerCall(unpack)
		res.allocsPerXfer += share * allocsPerCall(func() { compatible(); pack(); unpack() })
		if callErr != nil {
			return res, callErr
		}
	}
	return res, nil
}

// nsPerCall returns the median over three batches of the host time per
// call, each batch sized to last at least probeBatch.
func nsPerCall(f func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(start) >= probeBatch {
			break
		}
		n *= 2
	}
	per := make([]float64, 3)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	slices.Sort(per)
	return per[1]
}

// allocsPerCall returns heap allocations per call over a fixed run.
func allocsPerCall(f func()) float64 {
	const runs = 200
	f() // warm any lazily built state
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}
