package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the few fields of a runtime/pprof CPU profile that
// folding needs (samples, locations, functions, the string table), so the
// benchmark depends on nothing outside the standard library. Field numbers
// are those of profile.proto in github.com/google/pprof.

// profileStacks returns each CPU sample's stack as function names, leaf
// first, with its weight (CPU nanoseconds when the profile records them,
// else the sample count).
func profileStacks(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wt, v, b)
				case 2:
					for _, u := range appendUints(nil, wt, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: inlined frames, innermost first
					return eachField(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcName[fid]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, nil, errors.New("profile: string index out of range")
				}
				stack = append(stack, strs[idx])
			}
		}
		var w int64 = 1
		if len(s.values) > 0 {
			w = s.values[len(s.values)-1]
		}
		stacks = append(stacks, stack)
		weights = append(weights, w)
	}
	return stacks, weights, nil
}

// appendUints appends a repeated integer field, packed (wire type 2) or not.
func appendUints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and either its varint/fixed value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// foldProfile sums a CPU profile's sample weights per layer bucket.
func foldProfile(gz []byte) (map[string]int64, error) {
	stacks, weights, err := profileStacks(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for i, st := range stacks {
		out[stackBucket(st)] += weights[i]
	}
	return out, nil
}
