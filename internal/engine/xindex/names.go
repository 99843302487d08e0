package xindex

// NameIndex is the structural index: each element name that occurs
// anywhere in a stored fragment ("LINE", "STAGEDIR") maps to the
// delta-coded postings of the rows containing it. A row contributes one
// posting per distinct name, appended as rows arrive in heap order, so
// a name lookup is a single posting decode — no dictionary walk, union
// or sort. findKeyInElm matches an element at any depth, which a name
// key answers directly.
type NameIndex struct {
	names map[string]*PostingList
	rows  int // rows absorbed, with or without elements
}

// NewNameIndex returns an empty index.
func NewNameIndex() *NameIndex {
	return &NameIndex{names: map[string]*PostingList{}}
}

// SizeBytes reports the posting footprint plus dictionary strings.
func (x *NameIndex) SizeBytes() int64 {
	var n int64
	for name, pl := range x.names {
		n += int64(len(name)) + pl.SizeBytes()
	}
	return n
}

// Add appends rid to the posting list of each name. Names must be
// deduplicated per row and rids must arrive in increasing order; it
// reports false if an append would break posting order.
func (x *NameIndex) Add(rid uint64, names []string) bool {
	x.rows++
	for _, name := range names {
		pl := x.names[name]
		if pl == nil {
			pl = &PostingList{}
			x.names[name] = pl
		}
		if !pl.Append(rid) {
			return false
		}
	}
	return true
}

// LookupName returns the sorted posting keys of the rows whose
// fragments contain an element with the given name at any depth.
func (x *NameIndex) LookupName(name string) []uint64 {
	if pl := x.names[name]; pl != nil {
		return pl.Values()
	}
	return nil
}

// Filter returns the keys (sorted and deduplicated, each a row the
// index absorbed) whose rows contain an element with the given name. A
// name in every row — a column's own element, such as SPEAKER in
// speech_speaker — keeps every key without touching its postings;
// otherwise the postings are decoded no further than the last key.
func (x *NameIndex) Filter(name string, keys []uint64) []uint64 {
	pl := x.names[name]
	switch {
	case pl == nil:
		return nil
	case pl.Len() == x.rows:
		return keys
	}
	return pl.Filter(keys)
}
