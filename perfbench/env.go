package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

// The data sets and the sample set: TPC-H and insta at fixed scales, with
// the 2% sample set of bench.NewTPCHEnv / bench.NewInstaEnv, built here
// statement by statement so load and sample-build time are measured apart.
const (
	tpchScale  = 0.025
	instaScale = 0.025
	// blockRows is the scramble block size of every sample. Scale 0.35
	// with the 256-row blocks of benchrunner -exp progressive gives the
	// lineitem samples about 16 blocks; at scale 0.025, 16-row blocks give
	// them about as many (256-row blocks gave 1 to 3). Progressive queries
	// run several block prefixes over them, and approx reads the very same
	// samples single-shot.
	blockRows = 16
)

var tpchSamples = []string{
	"create uniform sample of lineitem ratio 0.02",
	"create stratified sample of lineitem on (l_returnflag, l_linestatus) ratio 0.02",
	"create hashed sample of lineitem on (l_orderkey) ratio 0.02",
	"create uniform sample of orders ratio 0.02",
	"create hashed sample of orders on (o_orderkey) ratio 0.02",
	"create uniform sample of partsupp ratio 0.02",
	"create hashed sample of partsupp on (ps_suppkey) ratio 0.02",
}

var instaSamples = []string{
	"create uniform sample of order_products ratio 0.02",
	"create hashed sample of order_products on (order_id) ratio 0.02",
	"create uniform sample of orders ratio 0.02",
	"create hashed sample of orders on (user_id) ratio 0.02",
	"create hashed sample of orders on (order_id) ratio 0.02",
	"create stratified sample of orders on (order_dow) ratio 0.02",
	"create stratified sample of orders on (order_hour) ratio 0.02",
}

// dataset is one loaded engine with its samples and a plain-driver Conn.
type dataset struct {
	name    string
	inst    int // data instance within the run
	eng     *engine.Engine
	drv     *drivers.Driver
	conn    *verdictdb.Conn
	queries []workload.Query
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	load, build, flush time.Duration
}

func (s setupTimes) total() time.Duration { return s.load + s.build + s.flush }

// newDataset loads one data set and builds its samples. dir, when not
// empty, is attached as the engine's data directory before loading, and
// everything is flushed to it at the end.
func newDataset(name string, seed int64, dir string) (*dataset, setupTimes, error) {
	var st setupTimes
	ds := &dataset{name: name}
	var load func(*engine.Engine) error
	var samples []string
	switch name {
	case "tpch":
		ds.eng = engine.NewSeeded(seed)
		load = func(e *engine.Engine) error { return workload.LoadTPCH(e, tpchScale, seed) }
		samples, ds.queries = tpchSamples, workload.TPCHQueries
	case "insta":
		ds.eng = engine.NewSeeded(seed + 1)
		load = func(e *engine.Engine) error { return workload.LoadInsta(e, instaScale, seed+1) }
		samples, ds.queries = instaSamples, workload.InstaQueries
	default:
		return nil, st, fmt.Errorf("unknown data set %q", name)
	}
	if dir != "" {
		if _, err := ds.eng.AttachDataDir(dir); err != nil {
			return nil, st, fmt.Errorf("attach %s: %w", dir, err)
		}
	}
	t0 := time.Now()
	if err := load(ds.eng); err != nil {
		return nil, st, fmt.Errorf("load %s: %w", name, err)
	}
	st.load = time.Since(t0)

	t0 = time.Now()
	ds.drv = drivers.NewGeneric(ds.eng)
	conn, err := verdictdb.Open(ds.drv, verdictdb.Defaults())
	if err != nil {
		return nil, st, err
	}
	conn.Builder().BlockRows = blockRows //verdict:unguarded benchmark set-up: conn is not shared yet
	for _, stmt := range samples {
		if err := conn.Exec(stmt); err != nil {
			return nil, st, fmt.Errorf("%s: %w", stmt, err)
		}
	}
	st.build = time.Since(t0)
	ds.conn = conn

	if dir != "" {
		t0 = time.Now()
		if err := ds.eng.Flush(); err != nil {
			return nil, st, fmt.Errorf("flush: %w", err)
		}
		st.flush = time.Since(t0)
	}
	return ds, st, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// sampleBlocks maps each sample table of the data set to its number of
// scramble blocks, for the run metadata; nil if the catalog cannot be read.
func (ds *dataset) sampleBlocks() map[string]int {
	samples, err := ds.conn.Samples()
	if err != nil {
		return nil
	}
	out := make(map[string]int, len(samples))
	for _, si := range samples {
		out[si.SampleTable] = len(si.BlockCounts)
	}
	return out
}

// storedRows counts the rows of every table in the engine.
func storedRows(e *engine.Engine) int64 {
	var n int64
	for _, t := range e.TableNames() {
		n += int64(e.RowCount(t))
	}
	return n
}

// decodedBytes measures the decoded (cache-resident) size of a table on a
// disk-backed engine: empty the chunk cache, read every chunk of the table
// with an unprunable scan, and read the cache's residency. The cache cap
// must exceed the table's size for the number to be whole.
func decodedBytes(ds *dataset, table string) (int64, error) {
	ds.eng.DropChunkCache()
	cols, err := ds.drv.Columns(table)
	if err != nil {
		return 0, err
	}
	if _, err := ds.drv.Query(fmt.Sprintf("select count(*) from %s where %s is not null", table, cols[0])); err != nil {
		return 0, err
	}
	return ds.eng.ChunkCache().Resident, nil
}
