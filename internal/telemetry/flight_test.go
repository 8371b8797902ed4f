package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpi3rma/internal/stats"
)

// TestFlightDisabledZeroAlloc pins the hot-path contract: with the
// recorder disabled (nil pointer — the state every engine is in unless
// WithFlightRecorder was passed) a Note is a single pointer check and
// allocates nothing. The enabled path writes into the preallocated ring
// and must not allocate either.
func TestFlightDisabledZeroAlloc(t *testing.T) {
	var off *FlightRecorder
	err := errors.New("sticky")
	if n := testing.AllocsPerRun(1000, func() {
		off.Note(42, "delivery", 3, 7, 1, err)
	}); n != 0 {
		t.Fatalf("disabled Note allocates %v per call, want 0", n)
	}
	on := NewFlightRecorder(FlightConfig{Rank: 1, Cap: 64})
	if n := testing.AllocsPerRun(1000, func() {
		on.Note(42, "delivery", 3, 7, 1, err)
	}); n != 0 {
		t.Fatalf("enabled Note allocates %v per call, want 0", n)
	}
	// The rest of the nil-receiver surface must be no-ops, not panics.
	off.SetHealth(nil)
	off.SetBaseline(NewRegistry())
	off.AutoDump("x", 0, nil)
	if off.Len() != 0 || off.Postmortem("x", 0) != nil || off.Dumps() != nil {
		t.Fatal("nil recorder returned non-empty state")
	}
}

// TestFlightRingEvictsOldest: a full ring keeps the newest Cap events in
// chronological order and reports the lifetime total.
func TestFlightRingEvictsOldest(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Rank: 0, Cap: 4})
	for i := 1; i <= 6; i++ {
		f.Note(int64(i), "delivery", i, 0, 0, nil)
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	pm := f.Postmortem("test", 6)
	if pm.Recorded != 6 || len(pm.Events) != 4 {
		t.Fatalf("recorded=%d events=%d, want 6 and 4", pm.Recorded, len(pm.Events))
	}
	for i, ev := range pm.Events {
		if want := int64(i + 3); ev.At != want {
			t.Fatalf("event %d at=%d, want %d (oldest evicted, chronological)", i, ev.At, want)
		}
	}
}

// TestFlightPostmortemContents: the dump stringifies stored errors,
// embeds the health snapshot, and reports counter deltas since the
// baseline was armed.
func TestFlightPostmortemContents(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Rank: 2, Cap: 8})
	reg := NewRegistry()
	var retries stats.Counter
	if err := reg.Register("net.retries", &retries); err != nil {
		t.Fatal(err)
	}
	retries.Add(5)
	f.SetBaseline(reg)
	f.SetHealth(func() HealthReport {
		return HealthReport{Rank: 2, VTime: 99, Sticky: []string{"link 0 failed"}}
	})
	retries.Add(3)
	f.Note(10, "link-failed", 0, 0, 0, errors.New("retry budget exhausted"))

	pm := f.Postmortem("link-failed", 10)
	if pm.Health == nil || pm.Health.VTime != 99 || len(pm.Health.Sticky) != 1 {
		t.Fatalf("health snapshot not embedded: %+v", pm.Health)
	}
	if pm.MetricDeltas["net.retries"] != 3 {
		t.Fatalf("metric delta = %d, want 3 (movement since baseline only)", pm.MetricDeltas["net.retries"])
	}
	if pm.Events[0].Err != "retry budget exhausted" {
		t.Fatalf("event error not stringified: %+v", pm.Events[0])
	}
	var buf bytes.Buffer
	if err := f.WritePostmortem(&buf, "link-failed", 10); err != nil {
		t.Fatalf("WritePostmortem: %v", err)
	}
	var check map[string]any
	if err := json.Unmarshal(buf.Bytes(), &check); err != nil {
		t.Fatalf("postmortem JSON does not parse: %v", err)
	}
}

// TestFlightAutoDumpOnce: AutoDump writes exactly one postmortem file
// per recorder (cascading faults reuse the first), named by rank and
// sanitized reason; explicit DumpFile calls are not limited.
func TestFlightAutoDumpOnce(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightConfig{Rank: 3, Dir: dir})
	f.Note(1, "retransmit", 0, 11, 2, nil)
	f.AutoDump("link-failed", 5, nil)
	f.AutoDump("apply-fault", 6, nil)
	dumps := f.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("auto-dumped %d files, want 1", len(dumps))
	}
	base := filepath.Base(dumps[0])
	if !strings.HasPrefix(base, "flight-rank3-link-failed-") {
		t.Fatalf("dump name %q, want flight-rank3-link-failed-*", base)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	var pm Postmortem
	if err := json.Unmarshal(raw, &pm); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if pm.Reason != "link-failed" || pm.Rank != 3 || len(pm.Events) != 1 {
		t.Fatalf("dump contents: %+v", pm)
	}
	if p, err := f.DumpFile("manual", 7); err != nil || p == "" {
		t.Fatalf("explicit DumpFile after auto: path=%q err=%v", p, err)
	}
	if len(f.Dumps()) != 2 {
		t.Fatalf("dumps after explicit = %d, want 2", len(f.Dumps()))
	}
}
