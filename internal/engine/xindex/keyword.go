package xindex

import (
	"bytes"
	"sort"
)

// KeywordIndex is the inverted index over fragment text: each distinct
// token of a row's concatenated character data gets the row's posting
// appended to its term list. Because the XADT predicates match by
// substring (strings.Contains), a query key is answered by taking, per
// key token, the union of the postings of every dictionary term that
// contains the token as a substring, then intersecting those unions —
// a guaranteed superset of the rows whose text contains the key.
type KeywordIndex struct {
	terms map[string]*PostingList

	// dict holds every term once, each followed by a NUL, in first-seen
	// order; starts[i] is the offset of term i and lists[i] its postings.
	// A token is letters and digits only, so it never matches across a
	// NUL, and one substring search over dict finds every term that
	// contains it.
	dict   []byte
	starts []int
	lists  []*PostingList
}

// NewKeywordIndex returns an empty index.
func NewKeywordIndex() *KeywordIndex {
	return &KeywordIndex{terms: map[string]*PostingList{}}
}

// termsContaining returns the posting lists of every dictionary term
// that contains tok as a substring.
func (k *KeywordIndex) termsContaining(tok string) []*PostingList {
	var lists []*PostingList
	needle := []byte(tok)
	for off := 0; off < len(k.dict); {
		i := bytes.Index(k.dict[off:], needle)
		if i < 0 {
			break
		}
		id := sort.SearchInts(k.starts, off+i+1) - 1 // last term starting at or before the match
		lists = append(lists, k.lists[id])
		if id+1 == len(k.starts) {
			break
		}
		off = k.starts[id+1]
	}
	return lists
}

// Terms reports the dictionary size.
func (k *KeywordIndex) Terms() int { return len(k.terms) }

// SizeBytes reports the posting footprint plus dictionary strings and
// the search directory.
func (k *KeywordIndex) SizeBytes() int64 {
	n := int64(len(k.dict)) + 16*int64(len(k.lists))
	for t, pl := range k.terms {
		n += int64(len(t)) + pl.SizeBytes()
	}
	return n
}

// Add appends rid to the posting list of each token. Tokens must be
// deduplicated per row and rids must arrive in increasing order; it
// reports false if an append would break posting order.
func (k *KeywordIndex) Add(rid uint64, tokens []string) bool {
	for _, t := range tokens {
		pl := k.terms[t]
		if pl == nil {
			pl = &PostingList{}
			k.terms[t] = pl
			k.starts = append(k.starts, len(k.dict))
			k.lists = append(k.lists, pl)
			k.dict = append(append(k.dict, t...), 0)
		}
		if !pl.Append(rid) {
			return false
		}
	}
	return true
}

// Candidates returns the sorted posting union-intersection for the key
// tokens: rows where every token is a substring of at least one of the
// row's terms. ok is false when tokens is empty (nothing to index on).
// An empty (non-nil) result means no row can match.
func (k *KeywordIndex) Candidates(tokens []string) (rids []uint64, ok bool) {
	if len(tokens) == 0 {
		return nil, false
	}
	var acc []uint64
	for i, tok := range tokens {
		lists := k.termsContaining(tok)
		if len(lists) == 0 {
			return []uint64{}, true
		}
		u := Union(lists)
		if i == 0 {
			acc = u
		} else {
			acc = IntersectSorted(acc, u)
		}
		if len(acc) == 0 {
			return []uint64{}, true
		}
	}
	return acc, true
}
