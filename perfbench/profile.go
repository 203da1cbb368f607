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

// profileLayers are the buckets a CPU profile folds into: the layer names
// of the traced run, plus runtime.gc and everything else.
var profileLayers = []string{
	"core.enabled", "por", "core.execute", "core.key", "explore.store",
	"protocols.invariant", "explore.engine", "dpor.engine", "runtime.gc", "other",
}

// gcPrefixes mark a stack as garbage-collector work wherever they appear
// in it: background mark and sweep workers, and mark assists charged to an
// allocating goroutine.
var gcPrefixes = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge"}

// foldRules map a function-name prefix to its layer. A sample belongs to
// the rule that matches the innermost frame of its stack, so bag matching
// that POR calls is charged to core.enabled, protocol callbacks to the core
// function that invoked them, and the benchmark's own frames to their
// callers.
var foldRules = []struct{ prefix, layer string }{
	{"mpbasset/internal/core.(*Bag).MatchingBySender", "core.enabled"},
	{"mpbasset/internal/core.(*Bag).HasMatching", "core.enabled"},
	{"mpbasset/internal/core.(*Protocol).Enabled", "core.enabled"},
	{"mpbasset/internal/core.(*Protocol).Execute", "core.execute"},
	{"mpbasset/internal/core.(*State).Key", "core.key"},
	{"mpbasset/internal/core.(*Protocol).CheckInvariant", "protocols.invariant"},
	{"mpbasset/internal/por.", "por"},
	{"mpbasset/internal/explore.fingerprint", "explore.store"},
	{"mpbasset/internal/explore.(*HashStore)", "explore.store"},
	{"mpbasset/internal/explore.(*ShardedStore)", "explore.store"},
	{"mpbasset/internal/explore.", "explore.engine"},
	{"mpbasset/internal/dpor.", "dpor.engine"},
}

// classify returns the layer of a stack given leaf first.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		for _, r := range foldRules {
			if strings.HasPrefix(fn, r.prefix) {
				return r.layer
			}
		}
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile and adds each sample's
// CPU time (its last value, in nanoseconds) to its layer in into.
func foldProfile(data []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id → string index
		locFuncs  = map[uint64][]uint64{}
		samples   [][]uint64
		sampleVal []int64
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			samples = append(samples, locs)
			sampleVal = append(sampleVal, vals[len(vals)-1])
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: inlined frames first, the caller they were inlined into last
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
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
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decoding CPU profile: %w", err)
	}
	for i, locs := range samples {
		var stack []string
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				if n := funcName[f]; n >= 0 && int(n) < len(strs) {
					stack = append(stack, strs[n])
				}
			}
		}
		into[classify(stack)] += float64(sampleVal[i])
	}
	return nil
}

// fields walks the protobuf fields of msg, passing varint values in v and
// length-delimited payloads in b.
func fields(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
