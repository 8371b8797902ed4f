// Package datatype implements an MPI-style datatype engine.
//
// The strawman RMA interface (paper Section IV, requirement 7) reuses MPI
// datatypes so that noncontiguous data — strided vectors, scatter/gather
// index lists — and heterogeneous systems (Section III-B3: special-purpose
// PEs with different endianness) are both supported by the same transfer
// calls.
//
// A Type describes a layout of typed elements over a byte buffer. Transfers
// pack the origin layout into a canonical wire format (little-endian,
// densely packed, elements in layout order) and unpack at the target into
// the target layout, converting byte order per rank. Type signatures (the
// flattened sequence of element kinds) must match between origin and
// target, exactly as MPI requires.
package datatype

import (
	"fmt"
)

// ByteOrder is the endianness of a rank's memory representation.
type ByteOrder int

const (
	// LittleEndian ranks store multi-byte elements least-significant first.
	LittleEndian ByteOrder = iota
	// BigEndian ranks store multi-byte elements most-significant first.
	// The wire format is little-endian, so big-endian ranks byte-swap on
	// pack and unpack — modelling the POWER-host + commodity-GPU mix the
	// paper warns about.
	BigEndian
)

// String returns the byte order's name.
func (o ByteOrder) String() string {
	if o == BigEndian {
		return "big-endian"
	}
	return "little-endian"
}

// Kind identifies a primitive element type.
type Kind uint8

const (
	// KByte is a raw byte (no swap needed).
	KByte Kind = iota
	// KInt32 is a 4-byte signed integer.
	KInt32
	// KInt64 is an 8-byte signed integer.
	KInt64
	// KFloat32 is a 4-byte IEEE-754 float.
	KFloat32
	// KFloat64 is an 8-byte IEEE-754 float.
	KFloat64
)

// Width returns the element width in bytes.
func (k Kind) Width() int {
	switch k {
	case KByte:
		return 1
	case KInt32, KFloat32:
		return 4
	case KInt64, KFloat64:
		return 8
	default:
		panic(fmt.Sprintf("datatype: unknown kind %d", k))
	}
}

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KByte:
		return "byte"
	case KInt32:
		return "int32"
	case KInt64:
		return "int64"
	case KFloat32:
		return "float32"
	case KFloat64:
		return "float64"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Type describes a data layout. Implementations are immutable and safe for
// concurrent use.
type Type interface {
	// Size is the number of bytes of actual data in one instance of the
	// type (the packed size).
	Size() int
	// Extent is the span of memory one instance covers, including holes;
	// instance i of a count-N transfer begins at offset i*Extent().
	Extent() int
	// Name returns a human-readable description.
	Name() string
	// walk invokes fn for every maximal contiguous run of same-kind
	// elements in one instance of the type, in layout order. off is the
	// byte offset from the instance start, n the number of elements.
	walk(fn func(off int, n int, k Kind))
	// signature returns the run-length signature of one instance,
	// committed when the type was built.
	signature() committed
}

// --- Predefined types -------------------------------------------------

type primitive struct {
	kind Kind
}

func (p primitive) Size() int    { return p.kind.Width() }
func (p primitive) Extent() int  { return p.kind.Width() }
func (p primitive) Name() string { return p.kind.String() }
func (p primitive) walk(fn func(off, n int, k Kind)) {
	fn(0, 1, p.kind)
}
func (p primitive) signature() committed {
	return committed{runs: primitiveRuns[p.kind][:], ok: true}
}

// primitiveRuns holds each primitive's one-run signature, so predefined
// types commit without allocating.
var primitiveRuns = [...][1]sigRun{
	KByte:    {{KByte, 1}},
	KInt32:   {{KInt32, 1}},
	KInt64:   {{KInt64, 1}},
	KFloat32: {{KFloat32, 1}},
	KFloat64: {{KFloat64, 1}},
}

// Predefined primitive types.
var (
	Byte    Type = primitive{KByte}
	Int32   Type = primitive{KInt32}
	Int64   Type = primitive{KInt64}
	Float32 Type = primitive{KFloat32}
	Float64 Type = primitive{KFloat64}
)

// --- Derived types ----------------------------------------------------

type contiguous struct {
	count int
	base  Type
	sig   committed
}

// Contiguous returns a type of count consecutive instances of base.
func Contiguous(count int, base Type) Type {
	if count < 0 {
		panic("datatype: Contiguous count must be non-negative")
	}
	return newContiguous(count, base)
}

func newContiguous(count int, base Type) contiguous {
	return contiguous{count: count, base: base, sig: commit(nil, base, count)}
}

func (t contiguous) Size() int   { return t.count * t.base.Size() }
func (t contiguous) Extent() int { return t.count * t.base.Extent() }
func (t contiguous) Name() string {
	return fmt.Sprintf("contiguous(%d,%s)", t.count, t.base.Name())
}
func (t contiguous) signature() committed { return t.sig }
func (t contiguous) walk(fn func(off, n int, k Kind)) {
	// A contiguous run of a primitive base collapses into one segment.
	if p, ok := t.base.(primitive); ok {
		if t.count > 0 {
			fn(0, t.count, p.kind)
		}
		return
	}
	ext := t.base.Extent()
	for i := 0; i < t.count; i++ {
		at := i * ext
		t.base.walk(func(off, n int, k Kind) { fn(at+off, n, k) })
	}
}

type vector struct {
	count    int // number of blocks
	blocklen int // base instances per block
	stride   int // base extents between block starts
	base     Type
	sig      committed
}

// Vector returns a strided type: count blocks of blocklen consecutive base
// instances, with block starts separated by stride base extents. This is
// the classic MPI_Type_vector used for matrix columns and halo faces.
func Vector(count, blocklen, stride int, base Type) Type {
	if count < 0 || blocklen < 0 {
		panic("datatype: Vector count and blocklen must be non-negative")
	}
	if stride < blocklen {
		panic("datatype: Vector stride must be >= blocklen (overlapping blocks are not supported)")
	}
	return newVector(count, blocklen, stride, base)
}

func newVector(count, blocklen, stride int, base Type) vector {
	// Holes do not enter the signature: count*blocklen base instances.
	sig := committed{}
	if reps, ok := mulInt(count, blocklen); ok {
		sig = commit(nil, base, reps)
	}
	return vector{count: count, blocklen: blocklen, stride: stride, base: base, sig: sig}
}

func (t vector) Size() int { return t.count * t.blocklen * t.base.Size() }
func (t vector) Extent() int {
	if t.count == 0 {
		return 0
	}
	return ((t.count-1)*t.stride + t.blocklen) * t.base.Extent()
}
func (t vector) Name() string {
	return fmt.Sprintf("vector(%d,%d,%d,%s)", t.count, t.blocklen, t.stride, t.base.Name())
}
func (t vector) signature() committed { return t.sig }
func (t vector) walk(fn func(off, n int, k Kind)) {
	ext := t.base.Extent()
	p, prim := t.base.(primitive)
	for b := 0; b < t.count; b++ {
		blockOff := b * t.stride * ext
		if prim {
			if t.blocklen > 0 {
				fn(blockOff, t.blocklen, p.kind)
			}
			continue
		}
		for i := 0; i < t.blocklen; i++ {
			at := blockOff + i*ext
			t.base.walk(func(off, n int, k Kind) { fn(at+off, n, k) })
		}
	}
}

type indexed struct {
	blocklens []int // base instances per block
	displs    []int // block displacements in base extents
	base      Type
	extent    int
	sig       committed
}

// Indexed returns a scatter/gather type: len(displs) blocks, block i
// holding blocklens[i] consecutive base instances at displacement
// displs[i] (in base extents). Displacements must be non-negative and the
// blocks must not overlap, but need not be sorted.
func Indexed(blocklens, displs []int, base Type) Type {
	if len(blocklens) != len(displs) {
		panic("datatype: Indexed blocklens and displs must have equal length")
	}
	ext, reps := 0, 0
	for i, d := range displs {
		if d < 0 || blocklens[i] < 0 {
			panic("datatype: Indexed displacements and block lengths must be non-negative")
		}
		if end := d + blocklens[i]; end > ext {
			ext = end
		}
		reps += blocklens[i]
	}
	return indexed{
		blocklens: append([]int(nil), blocklens...),
		displs:    append([]int(nil), displs...),
		base:      base,
		extent:    ext * base.Extent(),
		// Block order does not matter: every block repeats the same base.
		sig: commit(nil, base, reps),
	}
}

func (t indexed) Size() int {
	n := 0
	for _, b := range t.blocklens {
		n += b
	}
	return n * t.base.Size()
}
func (t indexed) Extent() int { return t.extent }
func (t indexed) Name() string {
	return fmt.Sprintf("indexed(%d blocks,%s)", len(t.displs), t.base.Name())
}
func (t indexed) signature() committed { return t.sig }
func (t indexed) walk(fn func(off, n int, k Kind)) {
	ext := t.base.Extent()
	p, prim := t.base.(primitive)
	for b := range t.displs {
		blockOff := t.displs[b] * ext
		if prim {
			if t.blocklens[b] > 0 {
				fn(blockOff, t.blocklens[b], p.kind)
			}
			continue
		}
		for i := 0; i < t.blocklens[b]; i++ {
			at := blockOff + i*ext
			t.base.walk(func(off, n int, k Kind) { fn(at+off, n, k) })
		}
	}
}

// Field is one member of a Struct type.
type Field struct {
	// Offset is the field's byte offset from the instance start.
	Offset int
	// Count is the number of consecutive Type instances at Offset.
	Count int
	// Type is the field's element type.
	Type Type
}

type structT struct {
	fields []Field
	extent int
	sig    committed
}

// Struct returns a heterogeneous record type assembled from fields, like
// MPI_Type_create_struct. The extent is the end of the furthest field
// unless a larger one is implied by alignment the caller bakes into the
// offsets.
func Struct(fields []Field) Type {
	ext := 0
	sig := committed{ok: true}
	for _, f := range fields {
		if f.Offset < 0 || f.Count < 0 {
			panic("datatype: Struct field offsets and counts must be non-negative")
		}
		if end := f.Offset + f.Count*f.Type.Extent(); end > ext {
			ext = end
		}
		if sig.ok {
			sig = commit(sig.runs, f.Type, f.Count)
		}
	}
	return structT{fields: append([]Field(nil), fields...), extent: ext, sig: sig}
}

func (t structT) Size() int {
	n := 0
	for _, f := range t.fields {
		n += f.Count * f.Type.Size()
	}
	return n
}
func (t structT) Extent() int { return t.extent }
func (t structT) Name() string {
	return fmt.Sprintf("struct(%d fields)", len(t.fields))
}
func (t structT) signature() committed { return t.sig }
func (t structT) walk(fn func(off, n int, k Kind)) {
	for _, f := range t.fields {
		ext := f.Type.Extent()
		for i := 0; i < f.Count; i++ {
			at := f.Offset + i*ext
			f.Type.walk(func(off, n int, k Kind) { fn(at+off, n, k) })
		}
	}
}
