package ssd

import (
	"math/rand"
	"testing"

	"repro/internal/nand"
)

// pageMapChunkCases lists every chunk size the FTL builds: the logical
// map's, and the reverse map's for each block size the repository
// simulates.
var pageMapChunkCases = []struct {
	name string
	bits uint
	want uint // log2 of the entries per chunk
}{
	{"l2p", l2pChunkBits, 10},
	{"p2l/4-page test blocks", p2lChunkBits(smallConfig().Nand.PagesPerBlock), 2},
	{"p2l/32-page update-WAF blocks", p2lChunkBits(32), 5},
	{"p2l/128-page SLC blocks", p2lChunkBits(nand.ParamsFor(nand.SLC).PagesPerBlock), 7},
	{"p2l/256-page TLC blocks", p2lChunkBits(nand.ParamsFor(nand.TLC).PagesPerBlock), 8},
	{"p2l/1024-page blocks", p2lChunkBits(1024), 8},
}

// checkAgainst compares every entry of m with the dense reference and
// checks that forEach visits exactly the mapped entries, in index order.
func checkAgainst(t *testing.T, m *pageMap, ref []int64) {
	t.Helper()
	for i, want := range ref {
		if got := m.get(int64(i)); got != want {
			t.Fatalf("get(%d) = %d, want %d", i, got, want)
		}
	}
	next := 0
	m.forEach(func(i, v int64) {
		for next < len(ref) && ref[next] == unmapped {
			next++
		}
		if int(i) != next || v != ref[next] {
			t.Fatalf("forEach visited (%d, %d), want (%d, %d)", i, v, next, ref[next])
		}
		next++
	})
	for ; next < len(ref); next++ {
		if ref[next] != unmapped {
			t.Fatalf("forEach skipped mapped entry %d", next)
		}
	}
}

func TestPageMapMatchesDenseReference(t *testing.T) {
	for _, tc := range pageMapChunkCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.bits != tc.want {
				t.Fatalf("chunk bits %d, want %d", tc.bits, tc.want)
			}
			chunk := int64(1) << tc.bits
			n := 5*chunk + 3 // ragged last chunk
			m := newPageMap(n, tc.bits, 1)
			ref := make([]int64, n)
			for i := range ref {
				ref[i] = unmapped
			}
			// Indices on both sides of every chunk boundary, then random
			// ones, with values that include unmapped (a trim).
			var idx []int64
			for b := chunk; b < n; b += chunk {
				idx = append(idx, b-1, b, b+1)
			}
			idx = append(idx, 0, n-1)
			rng := rand.New(rand.NewSource(int64(tc.bits)))
			for k := 0; k < 200; k++ {
				idx = append(idx, rng.Int63n(n))
			}
			for k, i := range idx {
				v := rng.Int63n(n)
				if k%7 == 6 {
					v = unmapped
				}
				m.set(i, v)
				ref[i] = v
				checkAgainst(t, &m, ref)
			}
		})
	}
}

func TestPageMapAbsentChunks(t *testing.T) {
	for _, tc := range pageMapChunkCases {
		t.Run(tc.name, func(t *testing.T) {
			chunk := int64(1) << tc.bits
			n := 4 * chunk
			m := newPageMap(n, tc.bits, 0)
			for i := int64(0); i < n; i++ {
				m.set(i, unmapped)
			}
			if len(m.slab) != 0 {
				t.Fatalf("unmapped writes materialised %d entries", len(m.slab))
			}
			for i := int64(0); i < n; i++ {
				if got := m.get(i); got != unmapped {
					t.Fatalf("get(%d) on an absent chunk = %d", i, got)
				}
			}
			// One write materialises exactly its own chunk; its neighbours
			// stay absent.
			m.set(2*chunk, 7)
			if int64(len(m.slab)) != chunk {
				t.Fatalf("one write materialised %d entries, want %d", len(m.slab), chunk)
			}
			for _, i := range []int64{2*chunk - 1, 3 * chunk} {
				if got := m.get(i); got != unmapped {
					t.Fatalf("get(%d) next to a written chunk = %d", i, got)
				}
			}
			m.set(3*chunk, unmapped)
			if int64(len(m.slab)) != chunk {
				t.Fatal("an unmapped write to an absent chunk materialised it")
			}
		})
	}
}

func TestPageMapCap(t *testing.T) {
	for _, tc := range pageMapChunkCases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a map over 2^32-1 pages did not panic", tc.name)
				}
			}()
			newPageMap(1<<32-1, tc.bits, 0)
		}()
	}
	// The largest encodable map builds; its last entry round-trips.
	m := newPageMap(1<<32-2, l2pChunkBits, 0)
	m.set(1<<32-3, 1<<32-3)
	if got := m.get(1<<32 - 3); got != 1<<32-3 {
		t.Fatalf("last entry = %d", got)
	}
}

// TestFTLFirstBlockPerPlaneFitsReserve pins the slab pre-sizing: opening
// the first block of every plane, as a preload does, never grows a slab.
func TestFTLFirstBlockPerPlaneFitsReserve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 16
	geo := cfg.Geometry()
	f := NewFTL(geo, cfg.LogicalPages())
	l2pCap, p2lCap := cap(f.l2p.slab), cap(f.p2l.slab)
	for p := 0; p < geo.Planes(); p++ {
		f.CommitWrite(int64(p), f.AllocPage(p), false)
	}
	if cap(f.l2p.slab) != l2pCap || cap(f.p2l.slab) != p2lCap {
		t.Fatalf("slab capacity grew: l2p %d→%d, p2l %d→%d",
			l2pCap, cap(f.l2p.slab), p2lCap, cap(f.p2l.slab))
	}
	if err := f.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}
