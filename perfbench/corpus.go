package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// defaultSeed reproduces the repository's default DSx1 corpora: the
// play generator's own default seed, and the SIGMOD generator's default
// (1999) at the same offset.
const defaultSeed = 42

// sigmodSeedOffset keeps the two generators on distinct streams.
const sigmodSeedOffset = 1999 - defaultSeed

// dataset is one DSx1 corpus serialized to document texts, the form
// LoadXML takes.
type dataset struct {
	name  string
	dtd   string
	texts []string
	bytes int64
}

func serialize(name, dtd string, docs []*xmltree.Document) dataset {
	ds := dataset{name: name, dtd: dtd, texts: make([]string, len(docs))}
	for i, d := range docs {
		ds.texts[i] = xmltree.Serialize(d.Root)
		ds.bytes += int64(len(ds.texts[i]))
	}
	return ds
}

// playsDataset generates the 37-play Shakespeare corpus from seed.
func playsDataset(seed int64) dataset {
	cfg := datagen.DefaultPlayConfig()
	cfg.Seed = seed
	return serialize("shakespeare", corpus.ShakespeareDTD, datagen.GeneratePlays(cfg))
}

// sigmodDataset generates the 3,000-document SIGMOD corpus from seed.
func sigmodDataset(seed int64) dataset {
	cfg := datagen.DefaultSigmodConfig()
	cfg.Seed = seed + sigmodSeedOffset
	return serialize("sigmod", corpus.SigmodDTD, datagen.GenerateSigmod(cfg))
}

// setupTimes splits one set-up into the phases the metrics report.
// Traced set-ups split loading into XML parsing and shredding.
type setupTimes struct {
	total, load, parse, shred, index, stats time.Duration
	heapBytes                               int64
}

// liveHeap forces a collection and returns the live heap size.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// openStores builds one loaded, indexed, analyzed store per dataset:
// NewStore, LoadXML (AddXML when register is set, so documents can be
// replaced later), CreateDefaultIndexes and RunStats. cfgFor supplies
// each store's configuration. With split set, loading calls
// xmltree.Parse and Store.Load (Store.AddDocuments) separately — the two
// halves of LoadXML — and times each.
func openStores(sets []dataset, cfgFor func() core.Config, register, split bool) ([]*core.Store, setupTimes, error) {
	var t setupTimes
	heap0 := liveHeap()
	start := time.Now()
	stores := make([]*core.Store, len(sets))
	for i, ds := range sets {
		st, err := core.NewStore(ds.dtd, cfgFor())
		if err != nil {
			return nil, t, err
		}
		stores[i] = st
		t0 := time.Now()
		if split {
			docs := make([]*xmltree.Document, len(ds.texts))
			for j, text := range ds.texts {
				if docs[j], err = xmltree.Parse(text); err != nil {
					return nil, t, err
				}
			}
			t1 := time.Now()
			if register {
				_, err = st.AddDocuments(docs)
			} else {
				err = st.Load(docs)
			}
			t.parse += t1.Sub(t0)
			t.shred += time.Since(t1)
		} else if register {
			_, err = st.AddXML(ds.texts)
		} else {
			err = st.LoadXML(ds.texts)
		}
		if err != nil {
			return nil, t, err
		}
		t.load += time.Since(t0)
		t0 = time.Now()
		if err := st.CreateDefaultIndexes(); err != nil {
			return nil, t, err
		}
		t1 := time.Now()
		if err := st.RunStats(); err != nil {
			return nil, t, err
		}
		t.index += t1.Sub(t0)
		t.stats += time.Since(t1)
	}
	t.total = time.Since(start)
	t.heapBytes = liveHeap() - heap0
	return stores, t, nil
}

// spaceBytes sums the data and index footprint of the stores.
func spaceBytes(stores []*core.Store) int64 {
	var n int64
	for _, st := range stores {
		s := st.Stats()
		n += s.DataBytes + s.IndexBytes
	}
	return n
}
