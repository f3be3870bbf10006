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

// The ingest workload: writes beside reads on a disk-backed engine. One
// epoch sets up TPC-H in a fresh data directory, then runs cyclesPerEpoch
// cycles; a cycle appends a ~1% lineitem batch (base insert, AppendBatch
// into every lineitem sample, Engine.Flush) and then answers the 18 TPC-H
// queries approximately. Every epoch replays the same batches from the
// same starting state, so a faster program runs more epochs, not bigger
// tables. An epoch ends, untimed, by closing and reopening its directory
// and checking that nothing was lost.
const (
	cyclesPerEpoch = 8
	batchFrac      = 0.01
	batchTable     = "perfbench_batch"
	minEpochs      = 2
)

// cacheCapOverSamples places the chunk-cache cap between the samples'
// decoded size and lineitem's: samples fit, the base table does not.
const cacheCapOverSamples = 2

func runIngest(cfg runConfig) (*output, error) {
	out := newOutput()
	batches, err := makeBatches(cfg.seed)
	if err != nil {
		return nil, err
	}
	root := filepath.Join(".bench_build", "ingest", fmt.Sprintf("%d", os.Getpid()))
	defer os.RemoveAll(root)

	var tr *tracer
	spanFrom := 0
	if cfg.traced {
		tr = newTracer()
	}
	var setupS, loadS, buildS, flushS, heapMB, dirSizes, bytesPerRow []float64
	var writeMs []float64
	var plain, traced tally
	var cacheCap int64
	var cacheHits, cacheMisses, chunkHits, chunkMisses, evictions, parScans int64
	// ops are the write cycles and reopen checks, nil when they passed;
	// stale are exact answers of the final round that failed the
	// reference check made after it.
	var ops, stale []error
	var acc accuracy
	start := time.Now()
	for epoch := 0; ; epoch++ {
		// Each epoch loads a new data instance; a traced run pairs every
		// traced epoch with an untraced one on the same instance, so the
		// tracing overhead compares like with like.
		useTrace, inst := false, epoch
		if cfg.traced {
			useTrace, inst = epoch%2 == 1, epoch/2
		}
		dir := filepath.Join(root, fmt.Sprintf("epoch%d", epoch))
		ds, st, err := newDataset("tpch", dataSeed(cfg.seed, inst), dir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, st.total().Seconds())
		loadS = append(loadS, st.load.Seconds())
		buildS = append(buildS, st.build.Seconds())
		flushS = append(flushS, st.flush.Seconds())
		heapMB = append(heapMB, liveHeapMB())
		loadedRows := int64(ds.eng.RowCount("lineitem"))

		if epoch == 0 {
			if cacheCap, err = sizeCache(ds, out); err != nil {
				return nil, err
			}
			out.meta["parallelism"] = ds.eng.Parallelism()
			out.meta["sample_blocks"] = map[string]map[string]int{"tpch": ds.sampleBlocks()}
		}
		ds.eng.SetChunkCacheBytes(cacheCap)
		ds.eng.DropChunkCache()

		conn := ds.conn
		if useTrace {
			if conn, err = verdictdb.Open(tracedDB{inner: ds.drv, tr: tr}, verdictdb.Defaults()); err != nil {
				return nil, err
			}
			conn.Builder().BlockRows = blockRows //verdict:unguarded benchmark set-up: conn is not shared yet
		}
		queries, err := ingestQueries(ds)
		if err != nil {
			return nil, err
		}
		// Warm-up: one untimed round of reads fills the chunk cache with
		// what the queries touch.
		for _, q := range queries {
			if r := call(conn, q, "approx", nil); r.err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", q.name(), r.err)
			}
		}
		if useTrace && spanFrom == 0 {
			spanFrom = len(tr.spans)
		}

		t, etr := &plain, (*tracer)(nil) // etr: the epoch's tracer, nil untraced
		if useTrace {
			t, etr = &traced, tr
		}
		var appended int64
		last := make([]callResult, len(queries))
		for c := 0; c < cyclesPerEpoch; c++ {
			b := batches[c]
			if err := stageBatch(ds.eng, b); err != nil {
				return nil, err
			}
			wStart := time.Now()
			err := writeCycle(ds, conn, etr)
			w := time.Since(wStart)
			if err != nil {
				err = fmt.Errorf("write cycle %d: %w", c, err)
			}
			ops = append(ops, err)
			if err != nil {
				continue
			}
			appended += int64(len(b))
			if !useTrace {
				writeMs = append(writeMs, ms(w))
			}

			h0, m0 := conn.CacheStats()
			cc0 := ds.eng.ChunkCache()
			p0 := ds.eng.ParallelScans()
			snap := snapProc()
			readStart := time.Now()
			for i, q := range queries {
				last[i] = call(conn, q, "approx", etr)
			}
			t.wall += w + time.Since(readStart)
			t.addSince(snap)
			for i, q := range queries {
				t.add(q, last[i])
			}
			if useTrace {
				h1, m1 := conn.CacheStats()
				cc1 := ds.eng.ChunkCache()
				cacheHits += h1 - h0
				cacheMisses += m1 - m0
				chunkHits += cc1.Hits - cc0.Hits
				chunkMisses += cc1.Misses - cc0.Misses
				evictions += cc1.Evictions - cc0.Evictions
				parScans += ds.eng.ParallelScans() - p0
			}
		}
		dirBytesNow, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		dirSizes = append(dirSizes, float64(dirBytesNow))
		bytesPerRow = append(bytesPerRow, ratio(float64(dirBytesNow), float64(storedRows(ds.eng))))

		done := time.Since(start) >= time.Duration(cfg.seconds)*time.Second && epoch+1 >= minEpochs && plain.n >= minSamples
		if done && (!cfg.traced || useTrace) {
			// The last round of reads ran on the final state: check its
			// passthrough answers against row-interpreter references, and
			// measure the accuracy of its approximate ones.
			if err := computeReferences(queries); err != nil {
				return nil, err
			}
			for i, q := range queries {
				if r := last[i]; r.err == nil && r.answer != nil {
					if err := check(q, r.answer); err != nil {
						stale = append(stale, err)
					}
					acc.add(q, r.answer)
				}
			}
		}
		ops = append(ops, reopenCheck(ds, conn, dir, loadedRows+appended))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if done && (!cfg.traced || useTrace) {
			out.meta["epochs"] = epoch + 1
			break
		}
	}

	out.attempted = plain.n + traced.n + len(ops)
	out.failed = plain.failed + traced.failed
	out.errs = append(plain.errs, traced.errs...)
	for _, err := range append(ops, stale...) {
		if err != nil {
			out.failed++
			out.errs = append(out.errs, err.Error())
		}
	}
	out.values["setup_s"] = median(setupS)
	out.values["workload.load_s"] = median(loadS)
	out.values["sampling.build_s"] = median(buildS)
	out.values["heap_mb"] = median(heapMB)
	endToEnd(out, &plain)
	answerQuality(out, &plain, &acc)
	out.values["write_p50_ms"] = median(writeMs)
	out.values["disk_bytes_per_row"] = median(bytesPerRow)
	out.meta["query_samples"] = plain.n
	out.meta["write_samples"] = len(writeMs)
	out.meta["chunk_cache_cap_bytes"] = cacheCap
	out.info["setup_flush_s"] = median(flushS)

	if cfg.traced {
		perLayer(out, tr, spanFrom, &plain, &traced)
		lt := tr.totals(spanFrom)
		nq := float64(lt.queries)
		out.values["core.plan_cache_hit_ratio"] = ratio(float64(cacheHits), float64(cacheHits+cacheMisses))
		out.values["engine.parallel_scans_per_query"] = ratio(float64(parScans), nq)
		out.values["engine.insert_ms"] = median(lt.insert)
		out.values["sampling.append_ms"] = median(lt.appends)
		out.values["storage.flush_ms"] = median(lt.flushes)
		out.values["storage.chunk_cache_hit_ratio"] = ratio(float64(chunkHits), float64(chunkHits+chunkMisses))
		out.values["storage.chunk_misses_per_query"] = ratio(float64(chunkMisses), nq)
		out.values["storage.evictions_per_query"] = ratio(float64(evictions), nq)
		out.values["storage.data_dir_bytes"] = median(dirSizes)
		path := fmt.Sprintf(".bench_build/traces/ingest-seed%d.jsonl", cfg.seed)
		if err := tr.write(path); err != nil {
			return nil, err
		}
		out.meta["trace_file"] = path
	}
	return out, nil
}

// makeBatches generates the appended lineitem rows from the seed: a TPC-H
// load at the batches' combined scale, cut into cyclesPerEpoch batches.
func makeBatches(seed int64) ([][][]engine.Value, error) {
	feed := engine.NewSeeded(seed + 7)
	if err := workload.LoadTPCH(feed, tpchScale*batchFrac*cyclesPerEpoch, seed+7); err != nil {
		return nil, fmt.Errorf("batch feed: %w", err)
	}
	t, err := feed.Lookup("lineitem")
	if err != nil {
		return nil, err
	}
	var rows [][]engine.Value
	if err := t.ForEachRow(func(r []engine.Value) error {
		rows = append(rows, append([]engine.Value(nil), r...))
		return nil
	}); err != nil {
		return nil, err
	}
	batches := make([][][]engine.Value, cyclesPerEpoch)
	per := len(rows) / cyclesPerEpoch
	for i := range batches {
		batches[i] = rows[i*per : (i+1)*per]
	}
	return batches, nil
}

// stageBatch loads one batch into the scratch table the cycle appends from.
func stageBatch(e *engine.Engine, rows [][]engine.Value) error {
	li, err := e.Lookup("lineitem")
	if err != nil {
		return err
	}
	if err := e.CreateTable(batchTable, li.Cols); err != nil {
		return err
	}
	return e.InsertRows(batchTable, rows)
}

// writeCycle is one timed append: base insert through the Conn, the batch
// appended to every lineitem sample, the scratch table dropped, and an
// explicit flush. With a tracer the cycle is a root span.
func writeCycle(ds *dataset, conn *verdictdb.Conn, tr *tracer) error {
	if tr != nil {
		root := tr.begin(spanWrite, "")
		defer tr.end(root, 0)
	}
	timed := func(name string, fn func() error) error {
		if tr != nil {
			return tr.timed(name, fn)
		}
		return fn()
	}
	if err := timed(spanInsert, func() error {
		return conn.Exec("insert into lineitem select * from " + batchTable)
	}); err != nil {
		return err
	}
	samples, err := conn.Samples()
	if err != nil {
		return err
	}
	for _, si := range samples {
		if si.BaseTable != "lineitem" {
			continue
		}
		if err := timed(spanAppend, func() error {
			_, err := conn.Builder().AppendBatch(si, batchTable)
			return err
		}); err != nil {
			return fmt.Errorf("append to %s: %w", si.SampleTable, err)
		}
	}
	if err := conn.Exec("drop table " + batchTable); err != nil {
		return err
	}
	return timed(spanFlush, ds.eng.Flush)
}

// ingestQueries binds the TPC-H queries to the disk-backed data set.
func ingestQueries(ds *dataset) ([]*query, error) {
	var qs []*query
	for _, wq := range ds.queries {
		agg, err := aggColumns(wq.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wq.ID, err)
		}
		qs = append(qs, &query{ds: ds, id: wq.ID, sql: wq.SQL, agg: agg})
	}
	return qs, nil
}

// sizeCache measures the decoded sizes of lineitem and of every sample,
// records them, and returns a cache cap above the samples' total and below
// lineitem's.
func sizeCache(ds *dataset, out *output) (int64, error) {
	ds.eng.SetChunkCacheBytes(1 << 40)
	li, err := decodedBytes(ds, "lineitem")
	if err != nil {
		return 0, err
	}
	samples, err := ds.conn.Samples()
	if err != nil {
		return 0, err
	}
	var sampleBytes int64
	for _, si := range samples {
		b, err := decodedBytes(ds, si.SampleTable)
		if err != nil {
			return 0, err
		}
		sampleBytes += b
	}
	capBytes := cacheCapOverSamples * sampleBytes
	out.meta["decoded_bytes_lineitem"] = li
	out.meta["decoded_bytes_samples"] = sampleBytes
	if sampleBytes <= 0 || capBytes >= li {
		return 0, fmt.Errorf("cache cap %d is not between the samples' decoded size %d and lineitem's %d", capBytes, sampleBytes, li)
	}
	return capBytes, nil
}

// reopenCheck closes the data directory, reopens it on a fresh engine
// behind the plain driver (so Open reconciles the sample catalog), and
// checks that lineitem holds every loaded and appended row and that the
// reconciled catalog matches the catalog of conn, the Conn that wrote.
func reopenCheck(ds *dataset, conn *verdictdb.Conn, dir string, wantRows int64) error {
	before, err := conn.Samples()
	if err != nil {
		return err
	}
	if err := ds.eng.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	eng := engine.New()
	rep, err := eng.AttachDataDir(dir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer eng.Close()
	if len(rep.Quarantined) > 0 {
		return fmt.Errorf("reopen quarantined %v", rep.Quarantined)
	}
	if got := int64(eng.RowCount("lineitem")); got != wantRows {
		return fmt.Errorf("reopen: lineitem has %d rows, want %d", got, wantRows)
	}
	reopened, err := verdictdb.Open(drivers.NewGeneric(eng), verdictdb.Defaults())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	after, err := reopened.Samples()
	if err != nil {
		return err
	}
	if len(after) != len(before) {
		return fmt.Errorf("reopen: %d samples, want %d", len(after), len(before))
	}
	want := map[string]verdictdb.SampleInfo{}
	for _, b := range before {
		want[b.SampleTable] = b
	}
	for _, a := range after {
		b, ok := want[a.SampleTable]
		if !ok || a.SampleRows != b.SampleRows || a.BaseRows != b.BaseRows {
			return fmt.Errorf("reopen: sample %s has %d rows of %d, want %d of %d",
				a.SampleTable, a.SampleRows, a.BaseRows, b.SampleRows, b.BaseRows)
		}
		if n := int64(eng.RowCount(a.SampleTable)); n != a.SampleRows {
			return fmt.Errorf("reopen: sample %s holds %d rows, catalog says %d", a.SampleTable, n, a.SampleRows)
		}
	}
	return nil
}
