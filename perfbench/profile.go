package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. The standard library has no reader for it, so this file
// decodes the few fields attribution needs: samples (location IDs and
// values), locations (their inlined function lines), functions (name
// string index) and the string table.

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		return 0, errors.New("profile: bad varint")
	}
	p.b = p.b[n:]
	return v, nil
}

// field reads the next key and returns its number, wire type and, for
// varints, the value; for length-delimited fields, the payload.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		v, p.b = binary.LittleEndian.Uint64(p.b), p.b[8:]
	case 2:
		var l uint64
		if l, err = p.varint(); err == nil {
			if uint64(len(p.b)) < l {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:l], p.b[l:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		v, p.b = uint64(binary.LittleEndian.Uint32(p.b)), p.b[4:]
	default:
		err = errors.New("profile: unsupported wire type")
	}
	return num, wire, v, data, err
}

// repeated decodes a repeated integer field that may be packed.
func repeated(wire int, v uint64, data []byte, dst []uint64) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	pb := pbuf{data}
	for len(pb.b) > 0 {
		x, err := pb.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type cpuSample struct {
	locs   []uint64
	values []uint64
}

// cpuProfile is the decoded part of a profile: each sample's stack as
// function names, leaf first, and its CPU nanoseconds.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples   []cpuSample
		locFuncs  = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcNames = map[uint64]uint64{}   // function -> string index
		strs      []string
		valueIdx  = -1 // sample value holding nanoseconds
		types     [][2]uint64
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, _, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			var t [2]uint64
			sub := pbuf{data}
			for len(sub.b) > 0 {
				n, _, x, _, err := sub.field()
				if err != nil {
					return nil, err
				}
				if n == 1 || n == 2 {
					t[n-1] = x
				}
			}
			types = append(types, t)
		case 2: // sample
			var s cpuSample
			sub := pbuf{data}
			for len(sub.b) > 0 {
				n, w, x, d, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(w, x, d, s.locs)
				case 2:
					s.values, err = repeated(w, x, d, s.values)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			sub := pbuf{data}
			for len(sub.b) > 0 {
				n, _, x, d, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 4: // line
					line := pbuf{d}
					for len(line.b) > 0 {
						ln, _, lx, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lx)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			sub := pbuf{data}
			for len(sub.b) > 0 {
				n, _, x, _, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 2:
					name = x
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for i, t := range types {
		if int(t[1]) < len(strs) && strs[t[1]] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample value")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if si := funcNames[fn]; int(si) < len(strs) {
					stack = append(stack, strs[si])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, int64(s.values[valueIdx]))
	}
	return p, nil
}

// gcFrames mark a sample as garbage-collector work wherever they
// appear in its stack.
var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.greyobject"}

// schedFrames mark scheduler, timer and stack-growth work.
var schedFrames = []string{"runtime.newstack", "runtime.copystack", "runtime.morestack"}

// layerOf attributes one sample. GC work anywhere in the stack is
// runtime.gc; a leaf inside a syscall is syscall (fsync shows here);
// stack growth is runtime.sched; otherwise the nearest frame of a
// simba package names the layer (the benchmark's own main package is
// loadgen), and a stack with none is runtime.sched.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	if len(stack) > 0 {
		leaf := stack[0]
		if strings.HasPrefix(leaf, "syscall.") || strings.HasPrefix(leaf, "internal/runtime/syscall.") ||
			strings.HasPrefix(leaf, "runtime/internal/syscall.") {
			return "syscall"
		}
	}
	for _, fn := range stack {
		for _, s := range schedFrames {
			if fn == s {
				return "runtime.sched"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "loadgen"
		}
		if rest, ok := strings.CutPrefix(fn, "simba/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			return pkg
		}
	}
	return "runtime.sched"
}

// attribute sums a profile's CPU seconds per layer.
func (p *cpuProfile) attribute() map[string]float64 {
	out := map[string]float64{}
	for i, st := range p.stacks {
		out[layerOf(st)] += float64(p.nanos[i]) / 1e9
	}
	return out
}
