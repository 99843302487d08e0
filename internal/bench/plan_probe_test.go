package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// fragLookups sums the lookup counters of every fragment index in st.
func fragLookups(st *core.Store) int64 {
	var n int64
	for _, name := range st.DB.Catalog.TableNames() {
		for _, fi := range st.DB.Catalog.Table(name).FragIndexes {
			n += fi.Lookups()
		}
	}
	return n
}

// TestPlanProbesEachConjunctOnce pins how many fragment-index lookups
// planning a paper query costs: one per distinct indexable
// findKeyInElm conjunct, shared by selectivity estimation, every
// join-order step's access costing and the IndexedFragScan rewrite.
// The count holds with the rewrite disabled and under a snapshot
// session, where only the (flag-blind) estimate probes.
func TestPlanProbesEachConjunctOnce(t *testing.T) {
	ds := ShakespeareDataset(4)
	want := map[string]int64{"QS2": 1, "QS3": 1, "QS4": 1, "QS5": 2}
	cases := []struct {
		name string
		cfg  engine.Config
	}{
		{"default", engine.Config{}},
		{"noxadtindex", engine.Config{DisableXADTIndexes: true}},
		{"session", engine.Config{MVCC: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := core.NewStore(ds.DTD, core.Config{Algorithm: core.XORator, Engine: c.cfg})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Load(ds.Docs); err != nil {
				t.Fatal(err)
			}
			if err := st.CreateDefaultIndexes(); err != nil {
				t.Fatal(err)
			}
			if err := st.RunStats(); err != nil {
				t.Fatal(err)
			}
			for _, q := range ShakespeareQueries() {
				before := fragLookups(st)
				if c.cfg.MVCC {
					s, err := st.DB.Begin()
					if err != nil {
						t.Fatal(err)
					}
					_, err = s.Query(q.XORator)
					s.Rollback()
					if err != nil {
						t.Fatalf("%s: %v", q.ID, err)
					}
				} else if _, err := st.DB.Plan(q.XORator); err != nil {
					t.Fatalf("%s: %v", q.ID, err)
				}
				if got := fragLookups(st) - before; got != want[q.ID] {
					t.Errorf("%s: planning made %d fragment-index lookups, want %d", q.ID, got, want[q.ID])
				}
			}
		})
	}
}
