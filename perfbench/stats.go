package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine/types"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with that percentile's rank (e.g. 66 for 30
// samples); ok is false when there are ten samples or fewer.
func tail(xs []float64) (v float64, pct int, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * (n - 10) / n, true
}

// geomean is the geometric mean of positive values; 0 if any is not.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// answer is what the correctness gate compares: a row count and an
// order-insensitive fingerprint of the rows.
type answer struct {
	Rows int
	FP   uint64
}

func (a answer) String() string { return fmt.Sprintf("rows=%d fp=%#016x", a.Rows, a.FP) }

// fingerprint hashes each row's values, rendered with core.FragmentText,
// and sums the row hashes, so the result is independent of row order
// but sensitive to every value and to duplicates.
func fingerprint(rows [][]types.Value) (answer, error) {
	h := fnv.New64a()
	var sum uint64
	for _, row := range rows {
		h.Reset()
		for _, v := range row {
			s, err := core.FragmentText(v)
			if err != nil {
				return answer{}, err
			}
			h.Write([]byte(s))
			h.Write([]byte{0x1f})
		}
		sum += h.Sum64()
	}
	return answer{Rows: len(rows), FP: sum}, nil
}
