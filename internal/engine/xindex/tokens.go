// Package xindex provides the secondary index structures over stored
// XADT columns: a structural element-name index (element name → RID
// postings) and an inverted keyword index over fragment text. Both keep
// delta-encoded posting lists with skip tables, and both feed the
// planner's IndexedFragScan rewrite; both are strictly
// candidate-generating — the scan re-verifies the original predicate on
// every fetched row, so the index only has to guarantee a superset of
// the matching rows, never the exact set.
package xindex

import "unicode"

// Tokenize splits s into its maximal runs of letters and digits. The
// tokens of a string are exactly the word-shaped islands the XADT
// substring predicates can land on, which gives the keyword index its
// superset guarantee: if strings.Contains(text, key) holds, then every
// token of key is a substring of some token of text — a key token is a
// maximal word run inside key, and wherever key occurs in text that run
// sits inside text's maximal word run covering the same positions.
func Tokenize(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// TokenSet returns the distinct tokens of s.
func TokenSet(s string) []string {
	toks := Tokenize(s)
	seen := make(map[string]bool, len(toks))
	out := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
