package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
)

// message is a minimal protocol-buffer encoder for synthetic profiles.
type message []byte

func (m message) varint(num int, v uint64) message {
	m = binary.AppendUvarint(m, uint64(num)<<3|wireVarint)
	return binary.AppendUvarint(m, v)
}

func (m message) bytes(num int, b []byte) message {
	m = binary.AppendUvarint(m, uint64(num)<<3|wireBytes)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func (m message) packed(num int, vs ...uint64) message {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return m.bytes(num, b)
}

// syntheticProfile encodes a CPU profile whose samples are given as
// stacks of locations, each location a list of function names with its
// inlined frames first.
func syntheticProfile(t *testing.T, samples []struct {
	stack [][]string
	ns    uint64
}) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, have := range strs {
			if have == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p message
	p = p.bytes(1, message(nil).varint(1, 1).varint(2, 2))
	p = p.bytes(1, message(nil).varint(1, 3).varint(2, 4))
	var nextLoc, nextFn uint64
	for si, s := range samples {
		var locs []uint64
		for _, frames := range s.stack {
			nextLoc++
			loc := message(nil).varint(1, nextLoc)
			for _, name := range frames {
				nextFn++
				p = p.bytes(5, message(nil).varint(1, nextFn).varint(2, strIdx(name)))
				loc = loc.bytes(4, message(nil).varint(1, nextFn).varint(2, 1))
			}
			p = p.bytes(4, loc)
			locs = append(locs, nextLoc)
		}
		sm := message(nil)
		if si%2 == 0 {
			sm = sm.packed(1, locs...)
		} else {
			for _, l := range locs {
				sm = sm.varint(1, l)
			}
		}
		p = p.bytes(2, sm.packed(2, 1, s.ns))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileChargesInnermostLayer(t *testing.T) {
	data := syntheticProfile(t, []struct {
		stack [][]string
		ns    uint64
	}{
		// A busy ssd function and the allocation it calls into.
		{[][]string{{"runtime.mallocgc"}, {"runtime.growslice"}, {"repro/internal/ssd.(*Device).Preload"}, {"main.main"}}, 30},
		{[][]string{{"repro/internal/ssd.busy"}, {"repro/internal/core.(*OptimStore).Run"}, {"main.main"}}, 7},
		// sim's Run inlined into core: the inlined frame is innermost.
		{[][]string{{"repro/internal/sim.(*Engine).Run", "repro/internal/core.(*OptimStore).Run.func3"}, {"main.main"}}, 20},
		{[][]string{{"runtime.gcBgMarkWorker"}}, 10},
		{[][]string{{"runtime.memmove"}, {"main.(*bench).timed"}}, 5},
	})
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"samples", "cpu"}; !reflect.DeepEqual(p.types, want) {
		t.Fatalf("sample types %v, want %v", p.types, want)
	}
	got, err := p.byLayer("cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"ssd": 37, "sim": 20, "runtime": 10, "bench": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cpu by layer %v, want %v", got, want)
	}
	if _, err := p.byLayer("alloc_space"); err == nil {
		t.Error("a CPU profile has no alloc_space values, want an error")
	}
	if _, err := parseProfile(data[:len(data)/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

var sink [][]byte

func TestProfileDecodesRuntimeAllocations(t *testing.T) {
	const chunk, n = 1 << 20, 64
	for i := 0; i < n; i++ {
		sink = append(sink, make([]byte, chunk))
	}
	sink = nil
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer, err := p.byLayer("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range byLayer {
		total += b
	}
	if total < chunk*n/2 {
		t.Errorf("allocation profile totals %d bytes after %d were allocated", total, chunk*n)
	}
}
