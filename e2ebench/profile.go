package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// Traced rounds run under the Go CPU profiler. Each sample is attributed to
// the repository module of its innermost frame inside repro/internal (its
// layer), so trace.attributed_frac is a share of sampled CPU and lies in
// [0,1]. Samples with no such frame are named after what ran them: the
// benchmark's own load generator, the GC's background workers, or the
// package at the root of the stack (net/http, runtime, ...).

const layerPrefix = "repro/internal/"

// sampleOwner names the owner of one sample from its frames, innermost
// first: "layer <module>" or "other <name>".
func sampleOwner(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, layerPrefix); ok {
			mod, _, _ := strings.Cut(rest, ".")
			return "layer " + mod
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "other e2ebench"
		}
	}
	if len(frames) == 0 {
		return "other unknown"
	}
	root := frames[len(frames)-1]
	if root == "runtime.gcBgMarkWorker" {
		return "other gc"
	}
	slash := strings.LastIndexByte(root, '/') + 1
	pkg, _, _ := strings.Cut(root[slash:], ".")
	return "other " + root[:slash] + pkg
}

// cpuByOwner decodes a gzipped CPU profile as runtime/pprof writes it and
// sums its CPU seconds by sampleOwner.
func cpuByOwner(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	// Fields of profile.proto's Profile message.
	const (
		fSampleType = 1
		fSample     = 2
		fLocation   = 4
		fFunction   = 5
		fString     = 6
	)
	var strs []string
	var sampleTypes []uint64 // string index of each value's type
	funcName := map[uint64]uint64{}
	locFuncs := map[uint64][]uint64{} // innermost function first
	var samples [][]byte
	for _, f := range top {
		switch f.num {
		case fString:
			strs = append(strs, string(f.data))
		case fSampleType:
			vt, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, fieldVarint(vt, 1))
		case fSample:
			samples = append(samples, f.data)
		case fFunction:
			fn, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			funcName[fieldVarint(fn, 1)] = fieldVarint(fn, 2)
		case fLocation:
			loc, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var fns []uint64
			for _, lf := range loc {
				if lf.num != 4 { // Line; inlined callees come before their caller
					continue
				}
				line, err := pbFields(lf.data)
				if err != nil {
					return nil, err
				}
				fns = append(fns, fieldVarint(line, 1))
			}
			locFuncs[fieldVarint(loc, 1)] = fns
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := map[string]float64{}
	for _, data := range samples {
		fs, err := pbFields(data)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, f := range fs {
			v, err := f.uvarints()
			if err != nil {
				return nil, err
			}
			switch f.num {
			case 1:
				locs = append(locs, v...)
			case 2:
				vals = append(vals, v...)
			}
		}
		if cpu >= len(vals) {
			return nil, errors.New("sample without a cpu value")
		}
		var frames []string
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				frames = append(frames, str(funcName[fn]))
			}
		}
		out[sampleOwner(frames)] += float64(vals[cpu]) / 1e9
	}
	return out, nil
}

var errBadProto = errors.New("malformed protobuf")

// pbField is one protobuf field: its number, wire type, and its value — a
// varint or fixed-width number in v, a length-delimited one in data.
type pbField struct {
	num, wire int
	v         uint64
	data      []byte
}

// pbFields splits one protobuf message into its fields.
func pbFields(msg []byte) ([]pbField, error) {
	var out []pbField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errBadProto
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(msg); n <= 0 {
				return nil, errBadProto
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if f.wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return nil, errBadProto
			}
			msg = msg[w:] // profile.proto has no fixed-width fields this reads
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return nil, errBadProto
			}
			f.data, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return nil, errBadProto
		}
		out = append(out, f)
	}
	return out, nil
}

// uvarints returns the values of a repeated varint field, packed or not.
func (f pbField) uvarints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	if f.wire != 2 {
		return nil, errBadProto
	}
	var out []uint64
	for d := f.data; len(d) > 0; {
		v, n := binary.Uvarint(d)
		if n <= 0 {
			return nil, errBadProto
		}
		out, d = append(out, v), d[n:]
	}
	return out, nil
}

// fieldVarint is the last value of varint field num, or 0.
func fieldVarint(fs []pbField, num int) uint64 {
	var v uint64
	for _, f := range fs {
		if f.num == num && f.wire == 0 {
			v = f.v
		}
	}
	return v
}
