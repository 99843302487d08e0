package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/exec"
	"repro/internal/engine/sql"
	"repro/internal/engine/types"
	"repro/internal/engine/wal"
	"repro/internal/engine/xindex"
	"repro/internal/xmltree"
)

// churnEdits is the number of transactional edits per cycle.
const churnEdits = 3

// churnReads are the reads of each cycle, run on the MVCC store.
var churnReads = map[string]bool{"QS2": true, "QS3": true, "QS4": true, "QS5": true}

// churn is the state of the write-churn workload: a WAL-backed MVCC
// XORator store over the plays, the play texts by document ID, and the
// speech IDs edits pick from (they change when a play is replaced).
type churn struct {
	r       *run
	st      *core.Store
	walDir  string
	texts   map[int64]string
	docIDs  []int64
	speech  []int64
	reads   []*query
	rng     *rand.Rand
	replace []float64 // ms
	edit    []float64 // ms
	commit  []float64 // ms, Session.Commit within edits
	busy    time.Duration
	ops     int

	// Traced-run counters.
	walBytes, walOps int64
	rebuildOps       int
	hits, misses     uint64
	tracedReads      int
	layers           map[string]float64
}

func runChurn(r *run) error {
	root, err := filepath.Abs(buildDir())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(root, "churn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	sets := []dataset{playsDataset(r.seed)}
	setups := 0
	var walDir string
	cfgFor := func() core.Config {
		setups++
		walDir = filepath.Join(tmp, fmt.Sprintf("wal%d", setups))
		return core.Config{Algorithm: core.XORator, Engine: engine.Config{
			MVCC: true, WALDir: walDir, WALSync: wal.SyncAlways,
		}}
	}
	stores, times, err := setupStores(r, sets, cfgFor, true)
	if err != nil {
		return err
	}
	st := stores[0]
	defer st.Close()
	c := &churn{r: r, st: st, walDir: walDir, texts: map[int64]string{},
		rng: rand.New(rand.NewSource(r.seed)), layers: layerDefaults()}
	// AddXML registered the plays under IDs 1..n in input order.
	for i, text := range sets[0].texts {
		id := int64(i + 1)
		c.texts[id] = text
		c.docIDs = append(c.docIDs, id)
	}
	for _, q := range paperQueries(core.XORator, st, nil) {
		if churnReads[q.id] {
			c.reads = append(c.reads, q)
		}
	}
	warmUp(r, "xorator", c.reads)
	if err := c.refreshSpeechIDs(); err != nil {
		return err
	}

	// Whole cycles only: a replace outweighs the rest of a cycle, so a
	// cut cycle would skew ops_per_s.
	order := c.rng.Perm(len(c.docIDs))
	deadline := time.Now().Add(r.seconds)
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		// Reads follow the replace and again the edits, so each read
		// sees both states and gets two samples per cycle.
		c.replaceOne(c.docIDs[order[cycle%len(order)]])
		for _, q := range c.reads {
			c.read(q, r.trace && cycle%2 == 1)
		}
		for i := 0; i < churnEdits; i++ {
			c.editOne()
		}
		for _, q := range c.reads {
			c.read(q, r.trace && cycle%2 == 1)
		}
	}

	if r.trace {
		c.report(times)
		return nil
	}
	setLatencies(r, c.reads, []opType{{"replace", c.replace}, {"edit", c.edit}})
	r.set("ops_per_s", "1/s", float64(c.ops)/c.busy.Seconds())
	r.set("space_amp", "ratio", float64(spaceBytes(stores))/float64(sets[0].bytes))
	return nil
}

// refreshSpeechIDs reloads the speech IDs edits pick from, in ID order.
func (c *churn) refreshSpeechIDs() error {
	res, err := c.st.Query(`SELECT speechID FROM speech`)
	if err != nil {
		return err
	}
	c.speech = c.speech[:0]
	for _, row := range res.Rows {
		c.speech = append(c.speech, row[0].Int())
	}
	if len(c.speech) == 0 {
		return fmt.Errorf("no speeches")
	}
	return nil
}

// timed runs one write and accounts the time it spent in the store,
// which fn returns; in the traced run it also records WAL growth and
// whether a fragment index was rebuilt.
func (c *churn) timed(name string, samples *[]float64, fn func() (time.Duration, error)) {
	walBefore := c.walSize()
	fragBefore := c.fragIndexes()
	d, err := fn()
	if !c.r.check(name, err) {
		return
	}
	*samples = append(*samples, ms(d))
	c.busy += d
	c.ops++
	if c.r.trace {
		c.walBytes += c.walSize() - walBefore
		c.walOps++
		after := c.fragIndexes()
		for i := range after {
			if after[i] != fragBefore[i] {
				c.rebuildOps++
				break
			}
		}
		storeLayers(c.layers, []*core.Store{c.st})
	}
}

// replaceOne replaces a play with its own text. Plays are taken in a
// seeded order without repeats, so a run's replaces cover distinct
// plays.
func (c *churn) replaceOne(id int64) {
	c.timed(fmt.Sprintf("replace doc %d", id), &c.replace, func() (time.Duration, error) {
		t0 := time.Now()
		err := c.st.ReplaceXML(id, c.texts[id])
		return time.Since(t0), err
	})
	if err := c.refreshSpeechIDs(); err != nil {
		c.r.check("speech IDs", err)
	}
}

// editOne runs one transaction on a seeded speech: a relational UPDATE
// that rewrites speech_childOrder with its current value and a
// SpliceFragment that rewrites speech_line with its current fragments,
// then Commit. Only the calls into the store are timed.
func (c *churn) editOne() {
	id := c.speech[c.rng.Intn(len(c.speech))]
	c.timed(fmt.Sprintf("edit speech %d", id), &c.edit, func() (time.Duration, error) {
		var inStore time.Duration
		call := func(fn func() error) error {
			t0 := time.Now()
			err := fn()
			inStore += time.Since(t0)
			return err
		}
		var s *core.Session
		if err := call(func() (err error) { s, err = c.st.NewSession(); return }); err != nil {
			return 0, err
		}
		defer s.Rollback()
		var res *engine.Result
		if err := call(func() (err error) {
			res, err = s.Query(fmt.Sprintf(`SELECT speech_childOrder, speech_line FROM speech WHERE speechID = %d`, id))
			return
		}); err != nil {
			return 0, err
		}
		if len(res.Rows) != 1 {
			return 0, fmt.Errorf("%d rows", len(res.Rows))
		}
		order := res.Rows[0][0].Int()
		frags, err := splitFragments(res.Rows[0][1])
		if err != nil {
			return 0, err
		}
		var n int64
		if err := call(func() (err error) {
			n, err = s.Exec(fmt.Sprintf(`UPDATE speech SET speech_childOrder = %d WHERE speechID = %d`, order, id))
			return
		}); err != nil {
			return 0, err
		}
		if n != 1 {
			return 0, fmt.Errorf("update touched %d rows", n)
		}
		if err := call(func() error { return s.SpliceFragment("speech", "speech_line", id, frags) }); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := call(s.Commit); err != nil {
			return 0, err
		}
		c.commit = append(c.commit, ms(time.Since(t0)))
		return inStore, nil
	})
}

// splitFragments renders an XADT value and splits it into its top-level
// elements, the form SpliceFragment takes, so splicing them back leaves
// the value as it was.
func splitFragments(v types.Value) ([]string, error) {
	if v.IsNull() {
		return nil, nil
	}
	text, err := core.FragmentText(v)
	if err != nil {
		return nil, err
	}
	nodes, err := xmltree.ParseFragment(text)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(nodes))
	for i, n := range nodes {
		if !n.IsElement() {
			return nil, fmt.Errorf("text between fragments of %q", text)
		}
		out[i] = xmltree.Serialize(n)
	}
	return out, nil
}

// read runs one QS read on the MVCC store. Traced reads also time
// sql.Parse and Database.Plan on their own, so plan time is Plan minus
// Parse and the rest of Store.Query is execution.
func (c *churn) read(q *query, traced bool) {
	var parse, planned time.Duration
	var op exec.Operator
	stores := []*core.Store{c.st}
	var h0, m0 uint64
	if traced {
		h0, m0 = cacheStats(stores)
		t0 := time.Now()
		_, err := sql.Parse(q.sql)
		t1 := time.Now()
		if err == nil {
			op, err = c.st.DB.Plan(q.sql)
		}
		parse, planned = t1.Sub(t0), time.Since(t1)
		if !c.r.check(q.id+" plan", err) {
			return
		}
	}
	t0 := time.Now()
	res, err := c.st.Query(q.sql)
	d := time.Since(t0)
	if err == nil {
		err = q.verify(res.Rows)
	}
	if !c.r.check(q.id, err) {
		return
	}
	c.busy += d
	c.ops++
	if !traced {
		q.lat = append(q.lat, ms(d))
		return
	}
	h1, m1 := cacheStats(stores)
	c.hits += h1 - h0
	c.misses += m1 - m0
	c.tracedReads++
	q.parse = append(q.parse, ms(parse))
	q.plan = append(q.plan, ms(planned-parse))
	q.exec = append(q.exec, ms(d-planned))
	q.traced = append(q.traced, ms(d+planned+parse))
	q.observe(op, len(res.Rows))
}

func (c *churn) walSize() int64 {
	fi, err := os.Stat(filepath.Join(c.walDir, wal.FileName))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// fragIndexes returns the current fragment index of every XADT column
// of the speech table; a changed pointer means the index was rebuilt.
func (c *churn) fragIndexes() []*xindex.FragmentIndex {
	t := c.st.Table("speech")
	return []*xindex.FragmentIndex{t.FragIndexOn("speech_speaker"), t.FragIndexOn("speech_line")}
}

// report fills the churn workload's per-layer metrics.
func (c *churn) report(t setupTimes) {
	m := c.layers
	queryLayers(m, c.reads)
	storeLayers(m, []*core.Store{c.st})
	if c.walOps > 0 {
		m["wal.bytes_per_op"] = float64(c.walBytes) / float64(c.walOps)
	}
	m["xindex.rebuild_ops"] = float64(c.rebuildOps)
	created, undo := c.st.DB.TxnMgr.Versions()
	m["mvcc.created"], m["mvcc.undo"] = float64(created), float64(undo)
	m["mvcc.commit_ms"] = median(c.commit)
	m["core.replace_ms"] = median(c.replace)
	m["core.edit_ms"] = median(c.edit)
	if c.tracedReads > 0 {
		// Per pass over the reads, the churn counterpart of a round.
		passes := float64(c.tracedReads) / float64(len(c.reads))
		m["xadt.cache_hits"] = float64(c.hits) / passes
		m["xadt.cache_misses"] = float64(c.misses) / passes
	}
	if c.hits+c.misses > 0 {
		m["xadt.hit_ratio"] = float64(c.hits) / float64(c.hits+c.misses)
	}
	setupLayers(m, t)
	setLayers(c.r, m)
}
