package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. The standard library has no reader for it, so this file
// decodes the few fields the fold needs: samples (location ids and
// values), locations (their inlined function lines), functions (name
// string index) and the string table.

var errProto = errors.New("malformed profile")

type protoField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errProto
}

// eachField walks the top-level fields of one message.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = readVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return errProto
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// stackSample is one profile sample: its function names, leaf first,
// and its sample count.
type stackSample struct {
	funcs []string
	count int64
}

// parseProfile decodes a gzipped CPU profile into stacks.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // sample
			var s rawSample
			err := eachField(f.b, func(g protoField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = uints(s.locs, g)
				case 2:
					s.vals, err = uints(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return eachField(g.b, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
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
			err := eachField(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{count: int64(s.vals[0])}
		for _, l := range s.locs {
			for _, fid := range locFuncs[l] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// modulePrefix is the import-path prefix of the simulator's layers.
const modulePrefix = "repro/internal/"

// gcLayer and otherLayer name the two buckets that are not packages.
const (
	gcLayer    = "go.gc"
	otherLayer = "other"
)

// layerOf charges a stack to the innermost repro/internal/<pkg> frame,
// so runtime map and malloc frames count against the package that
// called them. Stacks with no such frame are GC-worker time when a
// background mark worker runs them, and "other" otherwise (scheduler,
// the benchmark's own code).
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return gcLayer
		}
	}
	return otherLayer
}

// fold sums sample counts per layer; total is every sample.
func fold(samples []stackSample, into map[string]int64) (total int64) {
	for _, s := range samples {
		into[layerOf(s.funcs)] += s.count
		total += s.count
	}
	return total
}
