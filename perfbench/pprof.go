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

// layers are the program's packages under hetis/internal that get a CPU
// share of their own; samples in any other internal package count as
// "other", and samples with no internal frame at all as "runtime".
var layers = []string{
	"workload", "parallelizer", "profile", "fleet", "sim", "engine", "perf",
	"dispatch", "lp", "kvcache", "metrics", "trace", "scenario", "other", "runtime",
}

// layerOf maps a profiled function name to its layer, reporting false for
// functions outside hetis/internal.
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "hetis/internal/")
	if !ok {
		return "", false
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return pkg, true
		}
	}
	return "other", true
}

// cpuByLayer decodes a gzipped pprof CPU profile and returns the CPU seconds
// of each layer. A sample counts against the innermost frame of its stack
// that lies in a hetis/internal package, so map operations, allocation and
// other runtime work count against the layer that called them.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	cpu := map[string]float64{}
	for _, s := range p.samples {
		if p.valueIndex >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if l, ok := layerOf(p.str(p.functions[fn])); ok {
					layer = l
					break stack
				}
			}
		}
		cpu[layer] += float64(s.values[p.valueIndex]) / 1e9
	}
	return cpu, nil
}

// profileData is the part of a pprof profile the attribution reads.
type profileData struct {
	strings    []string
	valueIndex int                 // index of the cpu/nanoseconds value
	samples    []sample            // leaf location first
	locations  map[uint64][]uint64 // location id -> function ids, innermost first
	functions  map[uint64]int64    // function id -> name string index
}

type sample struct {
	locations []uint64
	values    []int64
}

func (p *profileData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile reads the fields of the perftools.profiles.Profile message
// the attribution needs: sample types (1), samples (2), locations (4),
// functions (5) and the string table (6).
func parseProfile(b []byte) (*profileData, error) {
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var sampleTypes []int64 // string index of each value's type
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 1:
			return eachField(msg, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2:
			var s sample
			err := eachField(msg, func(f int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return eachVarint(v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(line, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIndex = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if p.str(t) == "cpu" {
			p.valueIndex = i
		}
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, whether it arrived as
// one unpacked value (v) or packed into bytes.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
