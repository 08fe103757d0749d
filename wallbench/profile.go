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

// This file decodes the gzip-compressed protocol-buffer profiles that
// runtime/pprof writes, keeping only what the per-layer table needs: each
// sample's call stack as function names, innermost first, and its values.
// Field numbers follow github.com/google/pprof/proto/profile.proto.

// A sample is one decoded profile sample.
type sample struct {
	frames []string // function names, innermost first, inlined frames expanded
	values []int64
}

// A profile is a decoded pprof profile.
type profile struct {
	types   []string // sample value types, e.g. "cpu" or "alloc_space"
	samples []sample
}

// internalPrefix is the import-path prefix of the program's layers; the
// layer is the package name that follows it.
const internalPrefix = "repro/internal/"

// layerOf charges a stack to the layer of its innermost repro/internal
// frame, so runtime work (allocation, GC assists, write barriers) counts
// toward the layer that called it. A stack with no such frame is the
// benchmark's own loop ("bench") when a main-package frame is on it, and
// the runtime's (GC workers, scheduler) otherwise.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// byLayer sums one sample value type per layer.
func (p *profile) byLayer(valueType string) (map[string]int64, error) {
	vi := -1
	for i, t := range p.types {
		if t == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q values (types %v)", valueType, p.types)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[layerOf(s.frames)] += s.values[vi]
		}
	}
	return out, nil
}

// parseProfile decodes a gzip-compressed pprof profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		typeNames []int64 // string index of each sample type's name
		samples   []rawSample
		strs      []string
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName  = map[uint64]int64{}    // function id → string index
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeNames {
		p.types = append(p.types, str(t))
	}
	for _, rs := range samples {
		s := sample{values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.frames = append(s.frames, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// Protocol-buffer wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errTruncated = errors.New("truncated protocol buffer")

// fields calls fn for each field of one message: its number, wire type,
// and value (v for varints, b for length-delimited bytes).
func fields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case wireI64, wireI32:
			size := 8
			if wire == wireI32 {
				size = 4
			}
			if len(buf) < size {
				return errTruncated
			}
			buf = buf[size:]
		case wireBytes:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed or not.
func varints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
