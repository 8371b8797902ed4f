package datatype

import (
	"fmt"
)

// PackedSize returns the number of wire bytes count instances of t occupy.
func PackedSize(count int, t Type) int { return count * t.Size() }

// ExtentOf returns the number of buffer bytes count instances of t span.
func ExtentOf(count int, t Type) int {
	return count * t.Extent()
}

// Pack gathers count instances of t from src (laid out per the rank's
// order) into a fresh wire buffer in canonical (little-endian, dense)
// format and returns it.
func Pack(src []byte, count int, t Type, order ByteOrder) ([]byte, error) {
	dst := make([]byte, PackedSize(count, t))
	if err := PackInto(dst, src, count, t, order); err != nil {
		return nil, err
	}
	return dst, nil
}

// PackInto gathers count instances of t from src into dst in canonical
// wire format. dst must be exactly PackedSize(count, t) bytes.
func PackInto(dst, src []byte, count int, t Type, order ByteOrder) error {
	if len(dst) != PackedSize(count, t) {
		return fmt.Errorf("datatype: pack buffer is %d bytes, need %d", len(dst), PackedSize(count, t))
	}
	if need := ExtentOf(count, t); len(src) < need {
		return fmt.Errorf("datatype: source buffer is %d bytes, type %s x%d spans %d", len(src), t.Name(), count, need)
	}
	pos := 0
	ext := t.Extent()
	swap := order == BigEndian
	for i := 0; i < count; i++ {
		at := i * ext
		t.walk(func(off, n int, k Kind) {
			w := k.Width()
			seg := src[at+off : at+off+n*w]
			out := dst[pos : pos+n*w]
			if swap && w > 1 {
				swapCopy(out, seg, w)
			} else {
				copy(out, seg)
			}
			pos += n * w
		})
	}
	if pos != len(dst) {
		return fmt.Errorf("datatype: internal error: packed %d of %d bytes", pos, len(dst))
	}
	return nil
}

// Unpack scatters wire (canonical format) into count instances of t in dst,
// converting elements to the rank's order.
func Unpack(dst []byte, wire []byte, count int, t Type, order ByteOrder) error {
	if len(wire) != PackedSize(count, t) {
		return fmt.Errorf("datatype: wire buffer is %d bytes, need %d", len(wire), PackedSize(count, t))
	}
	if need := ExtentOf(count, t); len(dst) < need {
		return fmt.Errorf("datatype: destination buffer is %d bytes, type %s x%d spans %d", len(dst), t.Name(), count, need)
	}
	pos := 0
	ext := t.Extent()
	swap := order == BigEndian
	for i := 0; i < count; i++ {
		at := i * ext
		t.walk(func(off, n int, k Kind) {
			w := k.Width()
			seg := wire[pos : pos+n*w]
			out := dst[at+off : at+off+n*w]
			if swap && w > 1 {
				swapCopy(out, seg, w)
			} else {
				copy(out, seg)
			}
			pos += n * w
		})
	}
	if pos != len(wire) {
		return fmt.Errorf("datatype: internal error: unpacked %d of %d bytes", pos, len(wire))
	}
	return nil
}

// swapCopy copies src to dst reversing the byte order of each w-wide
// element. dst and src must not overlap.
func swapCopy(dst, src []byte, w int) {
	for i := 0; i < len(src); i += w {
		for j := 0; j < w; j++ {
			dst[i+j] = src[i+w-1-j]
		}
	}
}

// Signature returns the flattened element-kind sequence of count instances
// of t, run-length encoded as (kind, n) pairs. Two transfers are
// type-compatible when their signatures are equal — the MPI matching rule.
type Signature []sigRun

type sigRun struct {
	Kind Kind
	N    int
}

// SignatureOf computes the signature of count instances of t.
func SignatureOf(count int, t Type) Signature {
	var sig Signature
	add := func(k Kind, n int) {
		if n == 0 {
			return
		}
		if len(sig) > 0 && sig[len(sig)-1].Kind == k {
			sig[len(sig)-1].N += n
			return
		}
		sig = append(sig, sigRun{k, n})
	}
	for i := 0; i < count; i++ {
		t.walk(func(off, n int, k Kind) { add(k, n) })
	}
	return sig
}

// Equal reports whether two signatures describe the same element sequence.
func (s Signature) Equal(o Signature) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// committed is the signature a type commits at construction, as MPI's
// commit step flattens a type map once: one instance's maximal
// (kind, n) runs. Homogeneous layouts fold to a single run however they
// nest; ok is false only when alternating kinds would flatten past
// maxCommittedRuns (a decoded wire type may nest 2^31-count structs),
// and Compatible then falls back to walking both types.
type committed struct {
	runs []sigRun
	ok   bool
}

// maxCommittedRuns bounds one committed signature.
const maxCommittedRuns = 1 << 12

// commit appends reps instances of t's committed runs to runs, merging
// equal kinds at the seams.
func commit(runs []sigRun, t Type, reps int) committed {
	base := t.signature()
	if !base.ok {
		return committed{}
	}
	if len(base.runs) == 1 {
		n, ok := mulInt(base.runs[0].N, reps)
		if !ok {
			return committed{}
		}
		return appendRun(runs, base.runs[0].Kind, n)
	}
	out := committed{runs: runs, ok: true}
	for i := 0; i < reps && out.ok; i++ {
		for _, r := range base.runs {
			if out = appendRun(out.runs, r.Kind, r.N); !out.ok {
				break
			}
		}
	}
	return out
}

// appendRun appends n elements of kind k, extending the last run when it
// has the same kind.
func appendRun(runs []sigRun, k Kind, n int) committed {
	if n == 0 {
		return committed{runs: runs, ok: true}
	}
	if last := len(runs) - 1; last >= 0 && runs[last].Kind == k {
		sum, ok := addInt(runs[last].N, n)
		if !ok {
			return committed{}
		}
		runs[last].N = sum
		return committed{runs: runs, ok: true}
	}
	if len(runs) == maxCommittedRuns {
		return committed{}
	}
	return committed{runs: append(runs, sigRun{k, n}), ok: true}
}

func mulInt(a, b int) (int, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	return p, p/b == a && p > 0
}

func addInt(a, b int) (int, bool) {
	s := a + b
	return s, s >= a
}

// runCursor walks reps repetitions of one instance's runs element by
// element without materializing them.
type runCursor struct {
	runs []sigRun
	reps int // repetitions left, the current one included
	i    int // current run
	left int // elements left in the current run
}

func newRunCursor(runs []sigRun, reps int) runCursor {
	if len(runs) == 0 || reps == 0 {
		return runCursor{}
	}
	if len(runs) == 1 {
		// One run repeated is one longer run.
		if n, ok := mulInt(runs[0].N, reps); ok {
			return runCursor{runs: runs, reps: 1, left: n}
		}
	}
	return runCursor{runs: runs, reps: reps, left: runs[0].N}
}

func (c *runCursor) take(n int) {
	if c.left -= n; c.left > 0 {
		return
	}
	if c.i++; c.i == len(c.runs) {
		c.i = 0
		c.reps--
	}
	if c.reps > 0 {
		c.left = c.runs[c.i].N
	}
}

// Compatible reports whether a transfer of ocount instances of ot matches
// tcount instances of tt — identical flattened element sequences. It
// compares the committed signatures in place: O(1) for predefined types
// and anything that folds to one run, allocation-free always.
func Compatible(ocount int, ot Type, tcount int, tt Type) bool {
	os, ts := ot.signature(), tt.signature()
	if !os.ok || !ts.ok {
		return SignatureOf(ocount, ot).Equal(SignatureOf(tcount, tt))
	}
	a, b := newRunCursor(os.runs, ocount), newRunCursor(ts.runs, tcount)
	for a.reps > 0 && b.reps > 0 {
		if a.runs[a.i].Kind != b.runs[b.i].Kind {
			return false
		}
		n := min(a.left, b.left)
		a.take(n)
		b.take(n)
	}
	return a.reps == 0 && b.reps == 0
}
