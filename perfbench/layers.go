package main

import (
	"math"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/plan"
)

// layerUnits lists every per-layer metric the traced run reports, by
// module, with its unit. A metric a workload does not exercise (plan
// times of queries it does not run, WAL and MVCC counters on a store
// without them) reports 0.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"sql.parse_ms":       "ms", // per round of the workload's queries
		"plan.share":         "ratio",
		"plan.qerror_max":    "ratio",
		"plan.qerror_geo":    "ratio",
		"plan.joins":         "count",
		"exec.rows_per_ms":   "1/ms",
		"xadt.cache_hits":    "count", // per traced round (pass over the reads on churn)
		"xadt.cache_misses":  "count",
		"xadt.hit_ratio":     "ratio",
		"xindex.mb":          "MiB",
		"xindex.backlog_max": "count",
		"xindex.rebuild_ops": "count",
		"index.build_s":      "s",
		"index.btree_mb":     "MiB",
		"xmltree.parse_s":    "s",
		"shred.load_s":       "s",
		"catalog.stats_s":    "s",
		"catalog.stale_max":  "ratio",
		"storage.data_mb":    "MiB",
		"wal.bytes_per_op":   "B",
		"mvcc.created":       "count",
		"mvcc.undo":          "count",
		"mvcc.commit_ms":     "ms",
		"core.replace_ms":    "ms",
		"core.edit_ms":       "ms",
		"trace.overhead_pct": "%",
	}
	for _, id := range []string{"QS1", "QS2", "QS3", "QS4", "QS5", "QS6", "QG1", "QG2", "QG3", "QG4", "QG5", "QG6"} {
		u["plan."+id+"_ms"] = "ms"
		u["exec."+id+"_ms"] = "ms"
	}
	return u
}()

func layerDefaults() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for k := range layerUnits {
		m[k] = 0
	}
	return m
}

func setLayers(r *run, m map[string]float64) {
	for k, v := range m {
		r.set(k, layerUnits[k], v)
	}
}

// storeLayers reads the footprint counters the stores keep: heap bytes,
// B+tree bytes, fragment-index bytes and backlog, and the staleness of
// each table's statistics.
func storeLayers(m map[string]float64, stores []*core.Store) {
	var data, btree, frag int64
	backlog, stale := 0, 0.0
	for _, st := range stores {
		for _, name := range st.DB.Catalog.TableNames() {
			t := st.Table(name)
			data += t.DataBytes()
			for _, idx := range t.Indexes {
				btree += idx.Tree.SizeBytes()
			}
			for _, fi := range t.FragIndexes {
				frag += fi.SizeBytes()
				if b := fi.Backlog(); b > backlog {
					backlog = b
				}
			}
			s := t.StatsSnapshot()
			if r := s.StaleRatio(); !math.IsInf(r, 1) && r > stale {
				stale = r
			}
		}
	}
	m["storage.data_mb"] = float64(data) / mib
	m["index.btree_mb"] = float64(btree) / mib
	m["xindex.mb"] = float64(frag) / mib
	if float64(backlog) > m["xindex.backlog_max"] {
		m["xindex.backlog_max"] = float64(backlog)
	}
	m["catalog.stale_max"] = stale
}

// cacheStats sums the XADT decode-cache counters of the stores.
func cacheStats(stores []*core.Store) (hits, misses uint64) {
	for _, st := range stores {
		s := st.DB.XADTCacheStats()
		hits += s.Hits
		misses += s.Misses
	}
	return
}

// qerror is the symmetric ratio between an estimate and the truth.
func qerror(est, actual float64) float64 {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	return math.Max(est/actual, actual/est)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

var estRe = regexp.MustCompile(` est=(\d+)`)

// observe records a traced execution's row count and, once, the plan's
// join count and root estimate.
func (q *query) observe(op exec.Operator, rows int) {
	q.rows = rows
	if !q.planned {
		q.planned = true
		q.est = rootEstimate(op)
		q.joins = plan.CountJoins(op)
	}
}

// rootEstimate returns the topmost est= annotation of a plan, or 0 when
// an aggregate or limit sits above it, since then the estimate does not
// predict the result's row count.
func rootEstimate(op exec.Operator) float64 {
	text := plan.Explain(op)
	loc := estRe.FindStringSubmatchIndex(text)
	if loc == nil {
		return 0
	}
	above := text[:loc[0]]
	for _, op := range []string{"HashAggregate", "Limit", "TopN", "Distinct"} {
		if strings.Contains(above, op) {
			return 0
		}
	}
	v, _ := strconv.ParseFloat(text[loc[2]:loc[3]], 64) // digits only
	return v
}

// queryLayers fills the per-query layer metrics from traced samples:
// plan and execution medians per query, parse time per round, the
// planning share, estimate q-errors, join count, execution throughput,
// and the tracing overhead (traced against untraced medians).
func queryLayers(m map[string]float64, qs []*query) {
	var parse, planMS, total, execMS, rows, qerrs, overhead []float64
	joins := 0
	for _, q := range qs {
		p, pl, ex := median(q.parse), median(q.plan), median(q.exec)
		m["plan."+q.id+"_ms"] = pl
		m["exec."+q.id+"_ms"] = ex
		parse = append(parse, p)
		planMS = append(planMS, pl)
		execMS = append(execMS, ex)
		total = append(total, p+pl+ex)
		rows = append(rows, float64(q.rows))
		joins += q.joins
		if q.est > 0 && q.rows > 0 {
			qerrs = append(qerrs, qerror(q.est, float64(q.rows)))
		}
		if u, tr := median(q.lat), median(q.traced); u > 0 && tr > 0 {
			overhead = append(overhead, tr/u)
		}
		info("%s: traced n=%d parse=%.3f plan=%.3f exec=%.3f ms est=%.0f rows=%d; untraced n=%d median=%.3f ms",
			q.id, len(q.exec), p, pl, ex, q.est, q.rows, len(q.lat), median(q.lat))
	}
	m["sql.parse_ms"] = sum(parse)
	if s := sum(total); s > 0 {
		m["plan.share"] = sum(planMS) / s
	}
	m["plan.qerror_max"], m["plan.qerror_geo"] = maxOf(qerrs), geomean(qerrs)
	m["plan.joins"] = float64(joins)
	if s := sum(execMS); s > 0 {
		m["exec.rows_per_ms"] = sum(rows) / s
	}
	m["trace.overhead_pct"] = 100 * (geomean(overhead) - 1)
}

// setupLayers fills the set-up phase timings of a traced set-up.
func setupLayers(m map[string]float64, t setupTimes) {
	m["index.build_s"] = t.index.Seconds()
	m["xmltree.parse_s"] = t.parse.Seconds()
	m["shred.load_s"] = t.shred.Seconds()
	m["catalog.stats_s"] = t.stats.Seconds()
}
