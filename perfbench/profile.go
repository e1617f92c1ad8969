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

// cpuProfile accumulates CPU-profile samples by module. runtime/pprof
// writes the profile.proto format gzipped; the few messages needed here
// (samples, locations, functions, the string table) are decoded by hand
// so the benchmark needs nothing outside the standard library.
type cpuProfile struct {
	byModule map[string]int64 // sampled CPU nanoseconds
	total    int64
}

// add decodes one gzipped profile and attributes each sample to the first
// frame, leaf first, that belongs to a module of cpuModules.
func (p *cpuProfile) add(gz []byte) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("decoding the CPU profile: %w", err)
	}
	if p.byModule == nil {
		p.byModule = make(map[string]int64)
	}
	for _, s := range prof.samples {
		mod := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range prof.locations[loc] {
				if m := moduleOf(prof.strings[prof.functions[fn]]); m != "" {
					mod = m
					break frames
				}
			}
		}
		p.byModule[mod] += s.value
		p.total += s.value
	}
	return nil
}

// shares stores each module's share of the sampled CPU time in m.
func (p *cpuProfile) shares(m map[string]float64) {
	for _, mod := range cpuModules {
		m["cpu_share."+mod] = ratio(p.byModule[mod], p.total)
	}
}

// moduleOf maps a function's full name to its bucket, or "" for frames
// (the standard library, the runtime) that defer to their caller. The
// virtual clock's event heap — container/heap driving engine.eventHeap's
// methods — is its own bucket. Samples with no bucketed frame at all (GC
// workers, the scheduler, idle syscalls) count as runtime.
func moduleOf(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case pkg == "container/heap",
		strings.HasPrefix(fn, "repro/internal/engine.eventHeap."),
		strings.HasPrefix(fn, "repro/internal/engine.(*eventHeap)."):
		return "container-heap"
	case pkg == "main" || pkg == "repro":
		return "other"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, mod := range cpuModules {
			if mod == name {
				return mod
			}
		}
		return "other"
	}
	return ""
}

// profileData is the decoded subset of a profile.proto message.
type profileData struct {
	samples   []profileSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profileSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

var errTruncated = errors.New("truncated protobuf")

// protoField iterates the fields of one protobuf message.
type protoField struct {
	num   uint64
	wire  uint64
	v     uint64 // varint payload
	bytes []byte // length-delimited payload
}

func readFields(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := protoField{num: key >> 3, wire: key & 7}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field, packed or not.
func varints(f protoField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.v), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return out, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := readFields(b, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s profileSample
			var vals []uint64
			err := readFields(f.bytes, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = varints(g, s.locs)
				case 2:
					vals, err = varints(g, vals)
				}
				return err
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := readFields(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					return readFields(g.bytes, func(l protoField) error {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := readFields(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside the string table", name)
		}
	}
	return p, nil
}
