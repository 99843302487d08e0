package xindex

import (
	"slices"
	"strings"
	"testing"
)

// FuzzPostingCodec drives the delta/skip codec with arbitrary gap
// sequences: append must round-trip exactly, SeekGE must agree with a
// linear reference walk from any starting point, intersecting or
// filtering the two halves of the sequence must match a map-based
// reference, and their union must restore the sequence.
func FuzzPostingCodec(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add(make([]byte, 3*SkipInterval))
	f.Add([]byte{255, 255, 0, 0, 1, 128, 7})
	f.Fuzz(func(t *testing.T, gaps []byte) {
		vals := make([]uint64, 0, len(gaps))
		p := &PostingList{}
		cur := uint64(0)
		for _, g := range gaps {
			cur += uint64(g) + 1 // strictly increasing
			vals = append(vals, cur)
			if !p.Append(cur) {
				t.Fatalf("Append(%d) rejected an increasing value", cur)
			}
		}
		if p.Len() != len(vals) {
			t.Fatalf("Len = %d, want %d", p.Len(), len(vals))
		}
		got := p.Values()
		for i, v := range got {
			if v != vals[i] {
				t.Fatalf("Values[%d] = %d, want %d", i, v, vals[i])
			}
		}
		// SeekGE from a fresh iterator for a spread of targets, including
		// exact hits, gap interiors, zero, and past-the-end.
		targets := []uint64{0, cur, cur + 1}
		for i := 0; i < len(vals); i += 1 + len(vals)/8 {
			targets = append(targets, vals[i], vals[i]+1)
		}
		for _, target := range targets {
			it := p.Iterator()
			g, ok := it.SeekGE(target)
			w, wok := refSeekGE(vals, target)
			if ok != wok || (ok && g != w) {
				t.Fatalf("SeekGE(%d) = %d,%v want %d,%v", target, g, ok, w, wok)
			}
		}
		// Resumed seeks must never move backwards.
		it := p.Iterator()
		prev := uint64(0)
		for _, target := range targets {
			if target < prev {
				target = prev
			}
			g, ok := it.SeekGE(target)
			if !ok {
				break
			}
			if g < prev {
				t.Fatalf("SeekGE went backwards: %d after %d", g, prev)
			}
			prev = g
		}
		// Intersect the halves against a reference set intersection.
		a, b := &PostingList{}, &PostingList{}
		inA := map[uint64]bool{}
		for i, v := range vals {
			if i%2 == 0 || i%3 == 0 {
				a.Append(v)
				inA[v] = true
			}
			if i%2 == 1 || i%3 == 0 {
				b.Append(v)
			}
		}
		var want []uint64
		for _, v := range b.Values() {
			if inA[v] {
				want = append(want, v)
			}
		}
		gotI := Intersect([]*PostingList{a, b})
		if len(gotI) != len(want) {
			t.Fatalf("Intersect len = %d, want %d", len(gotI), len(want))
		}
		for i := range want {
			if gotI[i] != want[i] {
				t.Fatalf("Intersect[%d] = %d, want %d", i, gotI[i], want[i])
			}
		}
		// The skip-jumping filter must agree with the intersection, and
		// with membership in a for keys between postings too.
		if gotF := a.Filter(b.Values()); !slices.Equal(gotF, want) && len(gotF)+len(want) > 0 {
			t.Fatalf("Filter = %v, want %v", gotF, want)
		}
		keys := append(append([]uint64(nil), targets...), vals...)
		slices.Sort(keys)
		keys = slices.Compact(keys)
		var wantF []uint64
		for _, k := range keys {
			if inA[k] {
				wantF = append(wantF, k)
			}
		}
		if gotF := a.Filter(keys); !slices.Equal(gotF, wantF) && len(gotF)+len(wantF) > 0 {
			t.Fatalf("Filter(keys) = %v, want %v", gotF, wantF)
		}
		// a and b together hold every value.
		if gotU := Union([]*PostingList{a, b, p}); !slices.Equal(gotU, vals) && len(gotU)+len(vals) > 0 {
			t.Fatalf("Union = %v, want %v", gotU, vals)
		}
	})
}

// FuzzTokenizeSuperset checks the property the keyword index's
// correctness rests on: if key occurs as a substring of text, then every
// token of the key must be a substring of some token of the text — so
// unioning postings of dictionary terms that contain a key token can
// never miss a truly matching row.
func FuzzTokenizeSuperset(f *testing.F) {
	f.Add("O Romeo, Romeo! wherefore art thou", "Romeo")
	f.Add("soft, what light through yonder window", "what light")
	f.Add("a1b2c3", "1b2")
	f.Add("  spaced   out  ", " ")
	f.Add("Ünïcodé über alles", "über")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, text, key string) {
		ttoks := Tokenize(text)
		for _, tok := range ttoks {
			if tok == "" {
				t.Fatal("Tokenize produced an empty token")
			}
			if !strings.Contains(text, tok) {
				t.Fatalf("token %q not a substring of its text", tok)
			}
		}
		set := TokenSet(text)
		seen := map[string]bool{}
		for _, tok := range set {
			if seen[tok] {
				t.Fatalf("TokenSet repeated %q", tok)
			}
			seen[tok] = true
		}
		if !strings.Contains(text, key) {
			return
		}
		for _, ktok := range Tokenize(key) {
			found := false
			for _, ttok := range ttoks {
				if strings.Contains(ttok, ktok) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("text contains key %q but key token %q is in no text token %v", key, ktok, ttoks)
			}
		}
	})
}
