package datatype

import (
	"math/rand"
	"testing"
)

// randomNested builds a random type tree up to depth levels deep, mixing
// kinds inside structs and allowing zero counts, so committed signatures
// hit multi-run seams, empty instances and single-run folding.
func randomNested(r *rand.Rand, depth int) Type {
	prims := []Type{Byte, Int32, Int64, Float32, Float64}
	if depth == 0 || r.Intn(4) == 0 {
		return prims[r.Intn(len(prims))]
	}
	base := randomNested(r, depth-1)
	switch r.Intn(4) {
	case 0:
		return Contiguous(r.Intn(4), base)
	case 1:
		bl := r.Intn(3)
		return Vector(r.Intn(4), bl, bl+r.Intn(3), base)
	case 2:
		n := 1 + r.Intn(3)
		blocklens := make([]int, n)
		displs := make([]int, n)
		next := 0
		for i := 0; i < n; i++ {
			displs[i] = next + r.Intn(2)
			blocklens[i] = r.Intn(3)
			next = displs[i] + blocklens[i]
		}
		return Indexed(blocklens, displs, base)
	default:
		n := 1 + r.Intn(3)
		fields := make([]Field, n)
		off := 0
		for i := range fields {
			ft := base
			if r.Intn(2) == 0 {
				ft = randomNested(r, depth-1)
			}
			fields[i] = Field{Offset: off, Count: r.Intn(3), Type: ft}
			off += fields[i].Count*ft.Extent() + r.Intn(4)
		}
		return Struct(fields)
	}
}

// signatureEqual is the reference matching rule: flatten both sides and
// compare.
func signatureEqual(oc int, ot Type, tc int, tt Type) bool {
	return SignatureOf(oc, ot).Equal(SignatureOf(tc, tt))
}

// TestCompatibleMatchesSignature: the committed-signature Compatible
// agrees with flattening both signatures, over random nested pairs and
// over pairs built to match (count folding, re-wrapping, codec round
// trips).
func TestCompatibleMatchesSignature(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	matches := 0
	check := func(oc int, ot Type, tc int, tt Type) {
		t.Helper()
		want := signatureEqual(oc, ot, tc, tt)
		if got := Compatible(oc, ot, tc, tt); got != want {
			t.Fatalf("Compatible(%d, %s, %d, %s) = %v, flattened signatures say %v", oc, ot.Name(), tc, tt.Name(), got, want)
		}
		if want {
			matches++
		}
	}
	for iter := 0; iter < 4000; iter++ {
		a, b := randomNested(r, 3), randomNested(r, 3)
		oc, tc := r.Intn(4), r.Intn(4)
		check(oc, a, tc, b)
		check(oc, a, oc, a)
		check(oc*2, a, oc, Contiguous(2, a))
		check(1, Contiguous(oc, a), oc, a)
		check(oc, a, 1, Struct([]Field{{Offset: 0, Count: oc, Type: a}}))
		check(tc, Vector(tc, 1, 2, a), tc*tc, a)
		dec, _, err := Decode(Encode(b))
		if err != nil {
			t.Fatalf("codec round trip of %s: %v", b.Name(), err)
		}
		check(tc, b, tc, dec)
	}
	if matches < 4000 {
		t.Fatalf("only %d matching pairs exercised; the generator lost its positives", matches)
	}
}

// TestCompatibleUncommittedFallback: a type whose flattened signature
// would exceed the commit bound still matches exactly, through the
// walking fallback.
func TestCompatibleUncommittedFallback(t *testing.T) {
	pair := Struct([]Field{{Offset: 0, Count: 1, Type: Int32}, {Offset: 4, Count: 1, Type: Float32}})
	big := Contiguous(maxCommittedRuns, pair)
	if big.signature().ok {
		t.Fatalf("%d alternating runs committed; the bound is %d", 2*maxCommittedRuns, maxCommittedRuns)
	}
	if !Compatible(1, big, maxCommittedRuns, pair) {
		t.Error("uncommitted type no longer matches its unrolled form")
	}
	if Compatible(1, big, maxCommittedRuns-1, pair) {
		t.Error("uncommitted type matches one pair short")
	}
	if got, want := Compatible(2, big, 1, big), signatureEqual(2, big, 1, big); got != want {
		t.Errorf("Compatible = %v, flattened signatures say %v", got, want)
	}
}

// TestCompatibleAllocationFree pins the commit step's point: matching
// signatures at transfer time allocates nothing.
func TestCompatibleAllocationFree(t *testing.T) {
	rec := Struct([]Field{{Offset: 0, Count: 2, Type: Int32}, {Offset: 8, Count: 1, Type: Float64}})
	cases := []struct {
		name   string
		oc, tc int
		ot, tt Type
	}{
		{"predefined", 4096, 4096, Byte, Byte},
		{"contiguous", 4, 1, Int64, Contiguous(4, Int64)},
		{"vector", 6, 1, Float32, Vector(3, 2, 5, Float32)},
		{"struct", 3, 1, rec, Contiguous(3, rec)},
	}
	for _, c := range cases {
		if !Compatible(c.oc, c.ot, c.tc, c.tt) {
			t.Fatalf("%s: pair does not match", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { Compatible(c.oc, c.ot, c.tc, c.tt) }); n != 0 {
			t.Errorf("%s: Compatible allocates %.0f times per call, want 0", c.name, n)
		}
	}
}
