package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxSpanOps bounds the operations per rank whose spans go to the span
// file; layer-call durations are kept for every operation.
const maxSpanOps = 2048

// callKind names a public layer call the benchmark times from outside.
type callKind int

const (
	callMapGet callKind = iota
	callMapPut
	callEnqueue
	callDequeue
	callSessionPut
	callSessionComplete
	numCalls
)

var callNames = [numCalls]string{"Map.Get", "Map.Put", "Queue.Enqueue", "Queue.Dequeue", "Session.Put", "Session.Complete"}

// span is one timed interval of the traced run. An operation's span and
// its layer-call child share Op; Parent names the enclosing span.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"` // host ns since the run began
	End    int64  `json:"end_ns"`
}

// recorder keeps one rank's spans in memory. Only its rank's goroutine
// writes it; a nil recorder records nothing.
type recorder struct {
	rank  int
	epoch time.Time
	ops   int // operations seen, recorded or not
	spans []span
	calls [numCalls][]int64 // host ns of every layer call
}

func newRecorders(ranks int, epoch time.Time) []*recorder {
	recs := make([]*recorder, ranks)
	for r := range recs {
		recs[r] = &recorder{rank: r, epoch: epoch}
	}
	return recs
}

func (r *recorder) opID() uint64 {
	r.ops++
	return uint64(r.rank)<<40 | uint64(r.ops)
}

func (r *recorder) setupSpan(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Op: r.opID(), Name: name, Rank: r.rank,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
}

// op records one workload operation [t0, t3] whose layer call ran over
// [t1, t2].
func (r *recorder) op(name string, call callKind, t0, t1, t2, t3 time.Time) {
	r.calls[call] = append(r.calls[call], t2.Sub(t1).Nanoseconds())
	id := r.opID()
	if r.ops > maxSpanOps {
		return
	}
	r.spans = append(r.spans,
		span{Op: id, Name: name, Rank: r.rank, Start: t0.Sub(r.epoch).Nanoseconds(), End: t3.Sub(r.epoch).Nanoseconds()},
		span{Op: id, Name: callNames[call], Parent: name, Rank: r.rank, Start: t1.Sub(r.epoch).Nanoseconds(), End: t2.Sub(r.epoch).Nanoseconds()})
}

// callSamples merges every rank's durations of one layer call, sorted.
func callSamples(recs []*recorder, call callKind) []int64 {
	parts := make([][]int64, len(recs))
	for i, r := range recs {
		parts[i] = r.calls[call]
	}
	return sortedCopy(parts...)
}

// writeSpans writes every recorded span to dir as one JSON document and
// returns the file's path.
func writeSpans(dir, workload string, seed int64, recs []*recorder) (string, int, error) {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{Workload: workload, Seed: seed,
		Note: fmt.Sprintf("set-up spans, then the first %d operations per rank of the traced phase", maxSpanOps)}
	for _, r := range recs {
		doc.Spans = append(doc.Spans, r.spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	if err := json.NewEncoder(f).Encode(&doc); err != nil {
		f.Close()
		return "", 0, err
	}
	return path, len(doc.Spans), f.Close()
}
