package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/plan"
)

// paperXORatorStore loads one DSx1 corpus (the default seed-42
// generators) under XORator with the workload indexes and fresh
// statistics. DOP and the planner's CPU count are pinned so the plans
// do not depend on the host's core count.
func paperXORatorStore(t *testing.T, ds Dataset) *core.Store {
	t.Helper()
	st, err := core.NewStore(ds.DTD, core.Config{
		Algorithm: core.XORator,
		Engine:    engine.Config{DOP: 2, Planner: plan.Options{CPUs: 2}},
	})
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
	return st
}

// TestXORatorPaperPlansGolden pins DB.Explain — operators, access paths
// and every est= annotation — for the twelve XORator paper queries on
// DSx1. Planner work that must not change plans (memoizing estimates,
// re-plumbing index lookups) shows up here as a byte diff; rerun with
// -update only after reviewing an intentional plan change.
func TestXORatorPaperPlansGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads both DSx1 corpora")
	}
	var sb strings.Builder
	groups := []struct {
		ds      Dataset
		queries []Query
	}{
		{ShakespeareDataset(0), ShakespeareQueries()},
		{SigmodDataset(0), SigmodQueries()},
	}
	for _, g := range groups {
		st := paperXORatorStore(t, g.ds)
		for _, q := range g.queries {
			text, err := st.DB.Explain(q.XORator)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			fmt.Fprintf(&sb, "-- %s\n%s\n", q.ID, text)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "xorator_plans.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("XORator paper plans differ from %s.\nIf the change is intentional, rerun with -update.\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
