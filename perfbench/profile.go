package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets CPU samples are charged to, in report order.
// A sample goes to the innermost frame of a repository package; "bench"
// is this benchmark's own code, "goruntime" a stack with neither.
var cpuLayers = []string{
	"datatype", "memsim", "core", "simnet", "portals", "serializer",
	"dht", "queue", "runtime", "rma", "trace", "other", "bench", "goruntime",
}

// layerOf maps a repository package path to its bucket.
func layerOf(pkg string) string {
	switch pkg {
	case "mpi3rma/internal/datatype":
		return "datatype"
	case "mpi3rma/internal/memsim":
		return "memsim"
	case "mpi3rma/internal/core":
		return "core"
	case "mpi3rma/internal/simnet":
		return "simnet"
	case "mpi3rma/internal/portals":
		return "portals"
	case "mpi3rma/internal/serializer":
		return "serializer"
	case "mpi3rma/dht":
		return "dht"
	case "mpi3rma/dht/queue":
		return "queue"
	case "mpi3rma/internal/runtime":
		return "runtime"
	case "mpi3rma/rma":
		return "rma"
	case "mpi3rma/internal/trace", "mpi3rma/internal/telemetry":
		return "trace"
	}
	return "other"
}

// funcPackage returns the package path of a symbol name such as
// "mpi3rma/internal/core.(*Engine).Put". Type arguments of a generic
// symbol may hold other paths, so the search stops at the first '['.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// attributeCPU decodes a runtime/pprof CPU profile and returns each
// bucket's share of the sampled CPU time in percent.
func attributeCPU(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	funcName := make(map[uint64]string, len(prof.functions))
	for id, nameIdx := range prof.functions {
		if nameIdx < uint64(len(prof.strings)) {
			funcName[id] = prof.strings[nameIdx]
		}
	}
	// A location's bucket: its innermost repository or benchmark frame,
	// inlined frames first.
	locLayer := make(map[uint64]string, len(prof.locations))
	for id, fns := range prof.locations {
		for _, fn := range fns {
			name := funcName[fn]
			if strings.HasPrefix(name, "mpi3rma/") {
				locLayer[id] = layerOf(funcPackage(name))
				break
			}
			if strings.HasPrefix(name, "main.") {
				locLayer[id] = "bench"
				break
			}
		}
	}
	ns := make(map[string]int64)
	var total, samples int64
	for _, s := range prof.samples {
		layer := "goruntime"
		for _, loc := range s.locs {
			if l, ok := locLayer[loc]; ok {
				layer = l
				break
			}
		}
		ns[layer] += s.value
		total += s.value
		samples++
	}
	pct := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			pct[l] = 100 * float64(ns[l]) / float64(total)
		} else {
			pct[l] = 0
		}
	}
	return pct, samples, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]uint64   // function id -> name string index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

// decodeProfile parses the uncompressed profile.proto message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var values []int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples, nanoseconds].
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id, name uint64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire types 0, 1, 5) or bytes (2).
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
