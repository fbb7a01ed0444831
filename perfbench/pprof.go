package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cumulativeCPU decodes a runtime/pprof CPU profile (gzipped
// profile.proto) and returns, for each wanted function name, the CPU
// time of the samples whose stack contains it — pprof's "cum" column.
// Inlined frames count: the profile lists them as extra lines of a
// location.
func cumulativeCPU(gz []byte, wanted []string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		samples   [][]uint64              // location ids per sample
		values    [][]int64
		typeNames []int64 // sample_type type string indices
	)
	err = protoFields(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			return protoFields(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, v, d)
				case 2:
					for _, x := range appendVarints(nil, v, d) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			samples, values = append(samples, locs), append(values, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	nsIndex := -1
	for i, t := range typeNames {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			nsIndex = i
		}
	}
	if nsIndex < 0 {
		return nil, errors.New("CPU profile has no cpu sample type")
	}
	want := map[string]bool{}
	for _, w := range wanted {
		want[w] = true
	}
	out := make(map[string]float64, len(wanted))
	for i, locs := range samples {
		if nsIndex >= len(values[i]) {
			continue
		}
		seen := map[string]bool{}
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if name := strs[idx]; want[name] && !seen[name] {
					seen[name] = true
					out[name] += float64(values[i][nsIndex]) / 1e6
				}
			}
		}
	}
	return out, nil
}

// appendVarints appends a repeated integer field's values, which the
// encoder writes either one varint per field or packed.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// protoFields walks the top-level fields of one protobuf message,
// calling fn with the varint value (wire type 0) or the payload
// (wire type 2; data is non-nil, possibly empty). Fixed-width fields
// are skipped.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
