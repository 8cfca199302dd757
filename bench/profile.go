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

// This file decodes the gzipped protobuf that runtime/pprof writes, just far
// enough to attribute CPU samples to the repository's packages: samples,
// locations (with inlined lines), functions and the string table.

const repoPrefix = "ecndelay/internal/"

// cpuShares attributes every sample of a CPU profile to one module and
// returns each module's share of the sampled CPU time. A sample belongs to
// the innermost frame from ecndelay/internal/<pkg>, so container/heap under
// des counts as des and math.Expm1 under fixedpoint as fixedpoint. Samples
// with benchmark frames but no repository frame go to "bench"; samples with
// neither go to "runtime".
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	weight := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		weight[p.module(s.locs)] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	out := make(map[string]float64, len(weight))
	for m, w := range weight {
		out[m] = float64(w) / float64(total)
	}
	return out, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	funcs   map[uint64]int64    // function id → name index
	strs    []string
}

func (p *profile) module(locs []uint64) string {
	bench := false
	for _, l := range locs {
		for _, f := range p.locs[l] {
			i := p.funcs[f]
			if i < 0 || int(i) >= len(p.strs) {
				continue
			}
			name := p.strs[i]
			if rest, ok := strings.CutPrefix(name, repoPrefix); ok {
				pkg, _, _ := strings.Cut(rest, ".")
				return pkg
			}
			// The benchmark's own frames are main.* in the command and
			// ecndelay/bench.* in its test binary.
			if strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "ecndelay/bench.") {
				bench = true
			}
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := eachField(b, func(f field) error {
		switch f.num {
		case 2:
			var s profSample
			err := eachField(f.msg, func(f field) error {
				switch f.num {
				case 1:
					return f.eachVarint(func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return f.eachVarint(func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(f.msg, func(f field) error {
				switch f.num {
				case 1:
					id = f.v
				case 4:
					return eachField(f.msg, func(f field) error {
						if f.num == 1 {
							fns = append(fns, f.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(f.msg, func(f field) error {
				switch f.num {
				case 1:
					id = f.v
				case 2:
					name = int64(f.v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(f.msg))
		}
		return nil
	})
	return p, err
}

// field is one decoded protobuf field: a varint (v) or a length-delimited
// run of bytes (msg, with packed set).
type field struct {
	num    int
	v      uint64
	msg    []byte
	packed bool
}

// eachField walks the fields of one protobuf message. Fixed-width fields
// are skipped: the profile fields read here are varints and messages.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		f := field{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			f.msg, f.packed = b[n:n+int(l)], true
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
			continue
		default:
			return errBadProfile
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, whether it arrived
// packed or as a single varint.
func (f field) eachVarint(fn func(uint64)) error {
	if !f.packed {
		fn(f.v)
		return nil
	}
	for b := f.msg; len(b) > 0; {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")
