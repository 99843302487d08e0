package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/types"
)

// TestPaperAnswers loads both DSx1 corpora under both mappings on the
// default seed and on one other, and checks what the benchmark's
// correctness gate relies on: every paper query returns rows, the
// default seed reproduces the recorded answers, and the two mappings
// agree where the paper's queries ask the same question.
func TestPaperAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads DSx1 four times")
	}
	for _, seed := range []int64{defaultSeed, 7} {
		sets := []dataset{playsDataset(seed), sigmodDataset(seed)}
		for _, kw := range []string{"Romeo and Juliet", "ROMEO", "Rising"} {
			if !strings.Contains(strings.Join(sets[0].texts, ""), kw) {
				t.Errorf("seed %d: plays lack %q", seed, kw)
			}
		}
		for _, kw := range []string{"Join", "Worthy", "Bird"} {
			if !strings.Contains(strings.Join(sets[1].texts, ""), kw) {
				t.Errorf("seed %d: SIGMOD documents lack %q", seed, kw)
			}
		}
		got := map[string]answer{}
		for _, alg := range []core.Algorithm{core.Hybrid, core.XORator} {
			stores, _, err := openStores(sets, func() core.Config { return core.Config{Algorithm: alg} }, false, false)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, alg, err)
			}
			for _, q := range paperQueries(alg, stores[0], stores[1]) {
				res, err := q.st.Query(q.sql)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, alg, q.id, err)
				}
				a, err := fingerprint(res.Rows)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, alg, q.id, err)
				}
				key := string(alg) + "/" + q.id
				got[key] = a
				if a.Rows == 0 {
					t.Errorf("seed %d %s: no rows", seed, key)
				}
				if want := expected[key]; seed == defaultSeed && (want.Rows != a.Rows || (!q.idsOnly && want.FP != a.FP)) {
					t.Errorf("seed %d %s: %v, recorded %v", seed, key, a, want)
				}
			}
		}
		if seed != defaultSeed {
			continue
		}
		for id, rows := range map[string]int{"QS4": 46, "QG4": 384} {
			if h, x := got["hybrid/"+id], got["xorator/"+id]; h.Rows != rows || x.Rows != rows {
				t.Errorf("%s: hybrid %d rows, xorator %d rows, want %d and %d", id, h.Rows, x.Rows, rows, rows)
			}
		}
		if h, x := got["hybrid/QG5"], got["xorator/QG5"]; h.Rows != 1 || h != x {
			t.Errorf("QG5: hybrid %v, xorator %v, want one equal count", h, x)
		}
	}
}

func TestFingerprintIgnoresRowOrder(t *testing.T) {
	row := func(s string, n int64) []types.Value { return []types.Value{types.NewString(s), types.NewInt(n)} }
	a, _ := fingerprint([][]types.Value{row("a", 1), row("b", 2)})
	b, _ := fingerprint([][]types.Value{row("b", 2), row("a", 1)})
	c, _ := fingerprint([][]types.Value{row("a", 1), row("a", 1)})
	d, _ := fingerprint([][]types.Value{row("a", 2), row("b", 1)})
	if a != b {
		t.Errorf("reordered rows: %v != %v", a, b)
	}
	if a == c || a == d {
		t.Errorf("different rows share a fingerprint: %v %v %v", a, c, d)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(30 - i)
	}
	if v, pct, ok := tail(xs); !ok || v != 20 || pct != 66 {
		t.Errorf("tail of 1..30 = %v p%d %v, want 20 p66", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("tail of ten samples should not exist")
	}
}
