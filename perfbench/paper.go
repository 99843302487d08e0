package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/sql"
	"repro/internal/engine/types"
)

// setupRepeats is how many times a run sets its stores up; setup_s,
// load_s and heap_mb report the median, and the last stores are kept.
const setupRepeats = 3

const mib = 1 << 20

// query is one paper query bound to the store it runs on, with the
// answer every execution must reproduce and the samples it produced.
type query struct {
	id, sql string
	st      *core.Store
	// idsOnly marks queries that return synthetic IDs; only their row
	// count is checked, since IDs change when documents are replaced.
	idsOnly bool
	want    answer

	lat               []float64 // untraced call latency, ms
	parse, plan, exec []float64 // traced: sql.Parse, Plan minus Parse, exec.Drain, ms
	traced            []float64 // traced: the three calls together, ms
	rows              int
	est               float64 // root estimate from EXPLAIN; 0 if none applies
	joins             int
	planned           bool // est and joins are set
}

func (q *query) verify(rows [][]types.Value) error {
	got, err := fingerprint(rows)
	if err != nil {
		return err
	}
	if got.Rows != q.want.Rows || (!q.idsOnly && got.FP != q.want.FP) {
		return fmt.Errorf("answer %v, want %v", got, q.want)
	}
	return nil
}

// paperQueries binds QS1–QS6 to the plays store and QG1–QG6 to the
// SIGMOD store, in the mapping's SQL formulation.
func paperQueries(alg core.Algorithm, plays, sigmod *core.Store) []*query {
	var qs []*query
	add := func(list []bench.Query, st *core.Store) {
		for _, b := range list {
			text := b.XORator
			if alg == core.Hybrid {
				text = b.Hybrid
			}
			qs = append(qs, &query{id: b.ID, sql: text, st: st, idsOnly: b.ID == "QS4"})
		}
	}
	add(bench.ShakespeareQueries(), plays)
	add(bench.SigmodQueries(), sigmod)
	return qs
}

// warmUp runs each query once, untimed, and fixes the answer later
// executions must match. Every query must return rows, and on the
// default seed the answer must equal the recorded one.
func warmUp(r *run, mapping string, qs []*query) {
	for _, q := range qs {
		res, err := q.st.Query(q.sql)
		if err == nil {
			q.want, err = fingerprint(res.Rows)
		}
		if err == nil && q.want.Rows == 0 {
			err = fmt.Errorf("no rows on seed %d", r.seed)
		}
		if err == nil && r.seed == defaultSeed {
			key := mapping + "/" + q.id
			want, ok := expected[key]
			switch {
			case !ok:
				err = fmt.Errorf("no recorded answer for %s (got %v)", key, q.want)
			case want.Rows != q.want.Rows || (!q.idsOnly && want.FP != q.want.FP):
				err = fmt.Errorf("answer %v, recorded %v", q.want, want)
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: warm-up %s/%s %v\n", mapping, q.id, q.want)
		r.check("warm-up "+q.id, err)
	}
}

func runPaper(r *run) error {
	alg := core.XORator
	if r.workload == "paper-hybrid" {
		alg = core.Hybrid
	}
	sets := []dataset{playsDataset(r.seed), sigmodDataset(r.seed)}
	inBytes := sets[0].bytes + sets[1].bytes
	cfgFor := func() core.Config { return core.Config{Algorithm: alg} }

	stores, times, err := setupStores(r, sets, cfgFor, false)
	if err != nil {
		return err
	}
	qs := paperQueries(alg, stores[0], stores[1])
	warmUp(r, string(alg), qs)

	if r.trace {
		tracePaper(r, stores, qs, times)
		return nil
	}
	var busy time.Duration
	ops := 0
	// Whole rounds only, so every query has as many samples as the
	// others and ops_per_s weighs the queries as a round does.
	deadline := time.Now().Add(r.seconds)
	for time.Now().Before(deadline) {
		for _, q := range qs {
			t0 := time.Now()
			res, err := q.st.Query(q.sql)
			d := time.Since(t0)
			if err == nil {
				err = q.verify(res.Rows)
			}
			if r.check(q.id, err) {
				q.lat = append(q.lat, ms(d))
				busy += d
				ops++
			}
		}
	}
	setLatencies(r, qs, nil)
	r.set("ops_per_s", "1/s", float64(ops)/busy.Seconds())
	r.set("space_amp", "ratio", float64(spaceBytes(stores))/float64(inBytes))
	printFigure(r, qs)
	return nil
}

// opType is one kind of operation of a workload and its untraced
// latencies, in ms.
type opType struct {
	name string
	lat  []float64
}

// setLatencies reports each operation type's median (with its tail
// percentile when there are enough samples) and sets the latency
// metrics, which weigh every type equally and never pool two types into
// one median: qs_ms is the geometric mean of the Shakespeare queries'
// medians, op_ms that of every type the workload runs.
func setLatencies(r *run, qs []*query, writes []opType) {
	kinds := writes
	for _, q := range qs {
		kinds = append(kinds, opType{q.id, q.lat})
	}
	var qsMed, all []float64
	for _, t := range kinds {
		m := median(t.lat)
		all = append(all, m)
		if strings.HasPrefix(t.name, "QS") {
			qsMed = append(qsMed, m)
		}
		line := fmt.Sprintf("%s: n=%d median=%.3f ms", t.name, len(t.lat), m)
		if v, pct, ok := tail(t.lat); ok {
			line += fmt.Sprintf(" p%d=%.3f ms", pct, v)
		}
		info("%s", line)
	}
	r.set("qs_ms", "ms", geomean(qsMed))
	r.set("op_ms", "ms", geomean(all))
}

// setupStores sets the stores up setupRepeats times (once when traced)
// and reports setup_s, load_s and heap_mb as medians over the set-ups,
// keeping the last stores.
func setupStores(r *run, sets []dataset, cfgFor func() core.Config, register bool) ([]*core.Store, setupTimes, error) {
	n := setupRepeats
	if r.trace {
		n = 1
	}
	var total, load, heap []float64
	var stores []*core.Store
	var last setupTimes
	for i := 0; i < n; i++ {
		for _, st := range stores {
			_ = st.Close() // a fresh set-up replaces it; nothing is read back
		}
		stores = nil
		var err error
		stores, last, err = openStores(sets, cfgFor, register, r.trace)
		if err != nil {
			return nil, last, fmt.Errorf("set-up: %w", err)
		}
		total = append(total, last.total.Seconds())
		load = append(load, last.load.Seconds())
		heap = append(heap, float64(last.heapBytes)/mib)
	}
	if !r.trace {
		r.set("setup_s", "s", median(total))
		r.set("load_s", "s", median(load))
		r.set("heap_mb", "MiB", median(heap))
		info("setup: %d runs, setup_s %v, load_s %v", n, total, load)
	}
	return stores, last, nil
}

// tracePaper alternates untraced rounds (one Store.Query per query) with
// traced rounds that make the same call as sql.Parse, Database.Plan and
// exec.Drain, timing each, and reads the XADT cache counters around each
// traced round. The difference between the two kinds of round is the
// tracing overhead.
func tracePaper(r *run, stores []*core.Store, qs []*query, t setupTimes) {
	var hits, misses uint64
	tracedRounds := 0
	deadline := time.Now().Add(r.seconds)
	for round := 0; time.Now().Before(deadline); round++ {
		traced := round%2 == 1
		h0, m0 := cacheStats(stores)
		for _, q := range qs {
			if !traced {
				t0 := time.Now()
				res, err := q.st.Query(q.sql)
				d := time.Since(t0)
				if err == nil {
					err = q.verify(res.Rows)
				}
				if r.check(q.id, err) {
					q.lat = append(q.lat, ms(d))
				}
				continue
			}
			t0 := time.Now()
			_, err := sql.Parse(q.sql)
			t1 := time.Now()
			var op exec.Operator
			if err == nil {
				op, err = q.st.DB.Plan(q.sql)
			}
			t2 := time.Now()
			var rows [][]types.Value
			if err == nil {
				rows, err = exec.Drain(op)
			}
			t3 := time.Now()
			if err == nil {
				err = q.verify(rows)
			}
			if !r.check(q.id, err) {
				continue
			}
			q.parse = append(q.parse, ms(t1.Sub(t0)))
			q.plan = append(q.plan, ms(t2.Sub(t1)-t1.Sub(t0)))
			q.exec = append(q.exec, ms(t3.Sub(t2)))
			q.traced = append(q.traced, ms(t3.Sub(t0)))
			q.observe(op, len(rows))
		}
		if traced {
			h1, m1 := cacheStats(stores)
			hits += h1 - h0
			misses += m1 - m0
			tracedRounds++
		}
	}
	m := layerDefaults()
	queryLayers(m, qs)
	if tracedRounds > 0 {
		m["xadt.cache_hits"] = float64(hits) / float64(tracedRounds)
		m["xadt.cache_misses"] = float64(misses) / float64(tracedRounds)
	}
	if hits+misses > 0 {
		m["xadt.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	storeLayers(m, stores)
	setupLayers(m, t)
	setLayers(r, m)
}

// printFigure records this run's per-query medians and load time under
// .bench_build and, when the other mapping has a record for the same
// seed, prints the Hybrid/XORator ratio per query and for loading — the
// shape of the paper's Figures 11 and 13 (above 1 means XORator wins).
func printFigure(r *run, qs []*query) {
	rec := map[string]float64{"load_s": r.metrics["load_s"].Value}
	for _, q := range qs {
		rec[q.id] = median(q.lat)
	}
	dir := filepath.Join(buildDir(), "perfbench-results")
	path := func(w string) string { return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w, r.seed)) }
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: figure record: %v\n", err)
		return
	}
	data, _ := json.Marshal(rec) // a map of floats always marshals
	if err := os.WriteFile(path(r.workload), data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: figure record: %v\n", err)
		return
	}
	other := "paper-hybrid"
	if r.workload == other {
		other = "paper-xorator"
	}
	data, err := os.ReadFile(path(other))
	if err != nil {
		return
	}
	var o map[string]float64
	if json.Unmarshal(data, &o) != nil {
		return
	}
	hy, xo := rec, o
	if r.workload != "paper-hybrid" {
		hy, xo = o, rec
	}
	info("Figure 11/13 shape, seed %d: Hybrid/XORator time ratio (>1: XORator faster)", r.seed)
	keys := []string{}
	for _, q := range qs {
		keys = append(keys, q.id)
	}
	keys = append(keys, "load_s")
	var head, vals strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&head, "%8s", strings.TrimSuffix(k, "_s"))
		if xo[k] > 0 {
			fmt.Fprintf(&vals, "%8.2f", hy[k]/xo[k])
		} else {
			fmt.Fprintf(&vals, "%8s", "-")
		}
	}
	info("%s", head.String())
	info("%s", vals.String())
}

// buildDir is the benchmark's scratch directory inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
