package datatype

import (
	"encoding/binary"
	"fmt"
)

// Wire codec for datatypes. RMA implementations that honour a
// target-side datatype must ship the type description with the request
// (the origin names the target layout; the target has never seen it).
// Encode/Decode serialize the type tree compactly; the description rides
// in the RMA message header area of the core protocol.

// Type tree tags.
const (
	tagPrimitive byte = 1
	tagContig    byte = 2
	tagVector    byte = 3
	tagIndexed   byte = 4
	tagStruct    byte = 5
)

// Decode-side sanity bounds. The encoding arrives from the network, so a
// malicious or corrupt description must not be able to allocate unbounded
// memory or overflow extent arithmetic (a fuzzer found exactly that: a
// 10-byte Indexed header claiming 2^60 blocks).
const (
	// maxDecodeValue bounds any decoded count, block length,
	// displacement, stride, offset — keeps extents within int range.
	maxDecodeValue = 1 << 31
	// maxDecodeBlocks bounds Indexed block and Struct field counts before
	// their slices are allocated (further bounded by the buffer length:
	// every block costs at least two encoded bytes).
	maxDecodeBlocks = 1 << 20
)

// Encode serializes t.
func Encode(t Type) []byte {
	var out []byte
	return appendType(out, t)
}

func appendUvarint(out []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(out, buf[:n]...)
}

func appendType(out []byte, t Type) []byte {
	switch x := t.(type) {
	case primitive:
		out = append(out, tagPrimitive, byte(x.kind))
	case contiguous:
		out = append(out, tagContig)
		out = appendUvarint(out, uint64(x.count))
		out = appendType(out, x.base)
	case vector:
		out = append(out, tagVector)
		out = appendUvarint(out, uint64(x.count))
		out = appendUvarint(out, uint64(x.blocklen))
		out = appendUvarint(out, uint64(x.stride))
		out = appendType(out, x.base)
	case indexed:
		out = append(out, tagIndexed)
		out = appendUvarint(out, uint64(len(x.displs)))
		for i := range x.displs {
			out = appendUvarint(out, uint64(x.blocklens[i]))
			out = appendUvarint(out, uint64(x.displs[i]))
		}
		out = appendType(out, x.base)
	case structT:
		out = append(out, tagStruct)
		out = appendUvarint(out, uint64(len(x.fields)))
		for _, f := range x.fields {
			out = appendUvarint(out, uint64(f.Offset))
			out = appendUvarint(out, uint64(f.Count))
			out = appendType(out, f.Type)
		}
	default:
		panic(fmt.Sprintf("datatype: cannot encode type %T", t))
	}
	return out
}

// Decode deserializes a type from the front of buf, returning the type and
// the number of bytes consumed.
func Decode(buf []byte) (Type, int, error) {
	t, n, err := decodeType(buf)
	if err != nil {
		return nil, 0, err
	}
	return t, n, nil
}

func decodeUvarint(buf []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("datatype: truncated varint at offset %d", pos)
	}
	if v > maxDecodeValue {
		return 0, 0, fmt.Errorf("datatype: decoded value %d exceeds the sanity bound", v)
	}
	return v, pos + n, nil
}

func decodeType(buf []byte) (Type, int, error) {
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("datatype: empty type encoding")
	}
	switch buf[0] {
	case tagPrimitive:
		if len(buf) < 2 {
			return nil, 0, fmt.Errorf("datatype: truncated primitive encoding")
		}
		k := Kind(buf[1])
		if k > KFloat64 {
			return nil, 0, fmt.Errorf("datatype: unknown primitive kind %d", buf[1])
		}
		return primitive{k}, 2, nil
	case tagContig:
		count, pos, err := decodeUvarint(buf, 1)
		if err != nil {
			return nil, 0, err
		}
		base, n, err := decodeType(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		return newContiguous(int(count), base), pos + n, nil
	case tagVector:
		count, pos, err := decodeUvarint(buf, 1)
		if err != nil {
			return nil, 0, err
		}
		blocklen, pos, err := decodeUvarint(buf, pos)
		if err != nil {
			return nil, 0, err
		}
		stride, pos, err := decodeUvarint(buf, pos)
		if err != nil {
			return nil, 0, err
		}
		base, n, err := decodeType(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		if int(stride) < int(blocklen) {
			return nil, 0, fmt.Errorf("datatype: decoded vector stride %d < blocklen %d", stride, blocklen)
		}
		return newVector(int(count), int(blocklen), int(stride), base), pos + n, nil
	case tagIndexed:
		nblocks, pos, err := decodeUvarint(buf, 1)
		if err != nil {
			return nil, 0, err
		}
		// Each block costs at least two encoded bytes; reject counts the
		// buffer cannot possibly carry before allocating.
		if nblocks > maxDecodeBlocks || nblocks > uint64(len(buf))/2+1 {
			return nil, 0, fmt.Errorf("datatype: indexed type claims %d blocks in a %d-byte encoding", nblocks, len(buf))
		}
		blocklens := make([]int, nblocks)
		displs := make([]int, nblocks)
		for i := range blocklens {
			var b, d uint64
			b, pos, err = decodeUvarint(buf, pos)
			if err != nil {
				return nil, 0, err
			}
			d, pos, err = decodeUvarint(buf, pos)
			if err != nil {
				return nil, 0, err
			}
			blocklens[i] = int(b)
			displs[i] = int(d)
		}
		base, n, err := decodeType(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		return Indexed(blocklens, displs, base), pos + n, nil
	case tagStruct:
		nfields, pos, err := decodeUvarint(buf, 1)
		if err != nil {
			return nil, 0, err
		}
		// Each field costs at least four encoded bytes (two varints plus
		// a nested type of two bytes minimum).
		if nfields > maxDecodeBlocks || nfields > uint64(len(buf))/4+1 {
			return nil, 0, fmt.Errorf("datatype: struct type claims %d fields in a %d-byte encoding", nfields, len(buf))
		}
		fields := make([]Field, nfields)
		for i := range fields {
			var off, cnt uint64
			off, pos, err = decodeUvarint(buf, pos)
			if err != nil {
				return nil, 0, err
			}
			cnt, pos, err = decodeUvarint(buf, pos)
			if err != nil {
				return nil, 0, err
			}
			ft, n, err := decodeType(buf[pos:])
			if err != nil {
				return nil, 0, err
			}
			pos += n
			fields[i] = Field{Offset: int(off), Count: int(cnt), Type: ft}
		}
		return Struct(fields), pos, nil
	default:
		return nil, 0, fmt.Errorf("datatype: unknown type tag %d", buf[0])
	}
}

// Walk exposes the contiguous-segment iteration of one instance of t for
// packages that apply element-wise operations (accumulate, RMW): fn is
// called for every maximal run of n same-kind elements at byte offset off
// from the instance start.
func Walk(t Type, fn func(off, n int, k Kind)) { t.walk(fn) }
