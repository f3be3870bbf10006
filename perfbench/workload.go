package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	verdictdb "verdictdb"
)

// instances is how many independent data instances an in-memory run
// builds from its seed. At these scales some queries' work hangs on a
// handful of rows (tq-17 joins 5 to 13 parts, and takes 40% of an exact
// pass), so a single instance per run would make every run a draw of that
// lottery. Each pass runs the queries over every instance; setup_s is the
// median of the instance builds.
const instances = 8

// dataSeed derives instance i's data seed from the run seed.
func dataSeed(seed int64, i int) int64 { return seed*instances + int64(i) }

// minSamples keeps at least ten latency samples beyond p95.
const minSamples = 220

// minPrefixes is the least median number of block prefixes the
// approximate answers of a progressive run must have run.
const minPrefixes = 3

// runQueryWorkload runs approx, exact or progressive: set up both data
// sets, compute exact references with the row interpreter, warm up, then
// loop over the 33 queries until the time is up. A traced run alternates
// untraced and traced passes.
func runQueryWorkload(cfg runConfig) (*output, error) {
	out := newOutput()
	phase := newPhaseLog()
	var setupS, loadS, buildS []float64
	var sets []*dataset
	for i := 0; i < instances; i++ {
		var st setupTimes
		for _, name := range []string{"tpch", "insta"} {
			ds, t, err := newDataset(name, dataSeed(cfg.seed, i), "")
			if err != nil {
				return nil, err
			}
			ds.inst = i
			sets = append(sets, ds)
			st.load += t.load
			st.build += t.build
		}
		setupS = append(setupS, st.total().Seconds())
		loadS = append(loadS, st.load.Seconds())
		buildS = append(buildS, st.build.Seconds())
	}
	out.values["setup_s"] = median(setupS)
	out.values["workload.load_s"] = median(loadS)
	out.values["sampling.build_s"] = median(buildS)
	out.values["heap_mb"] = liveHeapMB()
	out.meta["data_instances"] = instances

	var queries []*query
	for _, ds := range sets {
		out.meta["parallelism"] = ds.eng.Parallelism()
		for _, wq := range ds.queries {
			agg, err := aggColumns(wq.SQL)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wq.ID, err)
			}
			queries = append(queries, &query{ds: ds, id: wq.ID, sql: wq.SQL, agg: agg})
		}
	}
	phase.done("set-up")
	if err := computeReferences(queries); err != nil {
		return nil, err
	}
	phase.done("references")

	// Traced runs use a second Conn per data set over the same engine and
	// samples, talking to it through the timing wrapper.
	var tr *tracer
	tconn := map[*dataset]*verdictdb.Conn{}
	if cfg.traced {
		tr = newTracer()
		for _, ds := range sets {
			c, err := verdictdb.Open(tracedDB{inner: ds.drv, tr: tr}, verdictdb.Defaults())
			if err != nil {
				return nil, err
			}
			tconn[ds] = c
		}
	}

	// Untimed warm-up: plan caches fill, lazy set-up finishes. The approx
	// run also times one exact execution per query for the speedup figure.
	exactMs := map[string][]float64{}
	for _, q := range queries {
		if r := call(q.ds.conn, q, cfg.workload, nil); r.err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", q.name(), r.err)
		}
		if cfg.traced {
			if r := call(tconn[q.ds], q, cfg.workload, tr); r.err != nil {
				return nil, fmt.Errorf("%s traced warm-up: %w", q.name(), r.err)
			}
		}
		if cfg.workload == "approx" {
			exactMs[q.id] = append(exactMs[q.id], ms(call(q.ds.conn, q, "exact", nil).lat))
		}
	}

	var plain, traced tally
	var acc accuracy
	var cacheHits, cacheMisses, parScans int64
	spanFrom := 0
	if tr != nil {
		spanFrom = len(tr.spans)
	}
	perQueryMs := map[string][]float64{}
	prefixesBy := map[string][]float64{}
	results := make([]callResult, len(queries))
	phase.done("warm-up")
	start := time.Now()
	for pass := 0; ; pass++ {
		useTrace := cfg.traced && pass%2 == 1
		t := &plain
		var h0, m0, p0 int64
		if useTrace {
			t = &traced
			h0, m0 = planCacheStats(tconn)
			p0 = parallelScans(sets)
		}
		snap := snapProc()
		passStart := time.Now()
		for i, q := range queries {
			if useTrace {
				results[i] = call(tconn[q.ds], q, cfg.workload, tr)
			} else {
				results[i] = call(q.ds.conn, q, cfg.workload, nil)
			}
		}
		t.wall += time.Since(passStart)
		t.addSince(snap)
		for i, q := range queries {
			r := results[i]
			if !useTrace {
				perQueryMs[q.id] = append(perQueryMs[q.id], ms(r.lat))
				if pass == 0 && r.err == nil {
					acc.add(q, r.answer)
					prefixesBy[q.id] = append(prefixesBy[q.id], float64(r.prefixes))
				}
			}
			t.add(q, r)
		}
		if useTrace {
			h1, m1 := planCacheStats(tconn)
			cacheHits += h1 - h0
			cacheMisses += m1 - m0
			parScans += parallelScans(sets) - p0
		}
		done := time.Since(start) >= time.Duration(cfg.seconds)*time.Second && plain.n >= minSamples
		if done && (!cfg.traced || useTrace) {
			break
		}
	}

	phase.done("measurement")
	out.attempted = plain.n + traced.n
	out.failed = plain.failed + traced.failed
	out.errs = append(plain.errs, traced.errs...)
	endToEnd(out, &plain)
	answerQuality(out, &plain, &acc)
	out.meta["query_samples"] = plain.n
	out.meta["sample_blocks"] = map[string]map[string]int{"tpch": sets[0].sampleBlocks(), "insta": sets[1].sampleBlocks()}
	if cfg.workload == "progressive" {
		// The workload exists to run several block prefixes per query;
		// a data or block size that stops it doing so is a broken run.
		p := median(plain.approxPrefixes)
		out.meta["approx_prefixes_p50"] = p
		if p < minPrefixes {
			return nil, fmt.Errorf("approximate answers ran a median of %v block prefixes, want at least %d", p, minPrefixes)
		}
	}
	out.info["query_p50_ms_by_query"] = medians(perQueryMs)
	out.info["prefixes_p50_by_query"] = medians(prefixesBy)
	if cfg.workload == "approx" {
		out.info["speedup_exact_over_approx_by_query"] = speedups(exactMs, perQueryMs)
	}
	if cfg.traced {
		perLayer(out, tr, spanFrom, &plain, &traced)
		out.values["core.plan_cache_hit_ratio"] = ratio(float64(cacheHits), float64(cacheHits+cacheMisses))
		out.values["engine.parallel_scans_per_query"] = ratio(float64(parScans), float64(traced.n))
		for _, name := range []string{"storage.chunk_cache_hit_ratio", "storage.chunk_misses_per_query",
			"storage.evictions_per_query", "storage.flush_ms", "storage.data_dir_bytes",
			"sampling.append_ms", "engine.insert_ms", "write_p50_ms", "disk_bytes_per_row"} {
			out.values[name] = 0 // no data directory and no writes on this workload
		}
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", cfg.workload, cfg.seed)
		if err := tr.write(path); err != nil {
			return nil, err
		}
		out.meta["trace_file"] = path
	}
	return out, nil
}

// computeReferences runs every query exactly on the engine's row
// interpreter (vectorized execution off), outside all timers. Each data
// set is its own engine, so up to one per CPU is computed at a time.
func computeReferences(queries []*query) error {
	byDS := map[*dataset][]*query{}
	var order []*dataset
	for _, q := range queries {
		if _, ok := byDS[q.ds]; !ok {
			order = append(order, q.ds)
		}
		byDS[q.ds] = append(byDS[q.ds], q)
	}
	errs := make([]error, len(order))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, ds := range order {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[i] = referencesFor(ds, byDS[ds])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func referencesFor(ds *dataset, queries []*query) error {
	ds.eng.SetVectorized(false)
	defer ds.eng.SetVectorized(true)
	for _, q := range queries {
		a, err := ds.conn.Query("bypass " + q.sql)
		if err != nil {
			return fmt.Errorf("%s reference: %w", q.name(), err)
		}
		q.ref = newReference(a, q.agg)
	}
	return nil
}

func planCacheStats(conns map[*dataset]*verdictdb.Conn) (hits, misses int64) {
	for _, c := range conns {
		h, m := c.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

func parallelScans(sets []*dataset) int64 {
	var n int64
	for _, ds := range sets {
		n += ds.eng.ParallelScans()
	}
	return n
}

// endToEnd fills the latency and throughput metrics from the untraced side.
func endToEnd(out *output, t *tally) {
	out.values["query_p50_ms"] = quantile(t.latMs, 0.50)
	out.values["query_p95_ms"] = quantile(t.latMs, 0.95)
	out.values["queries_per_s"] = ratio(float64(t.n), t.wall.Seconds())
}

// answerQuality fills the answer metrics: failures (every failure of the
// run, so call it once out.failed is complete), approximate share, and the
// true error and interval coverage of approximate cells.
func answerQuality(out *output, t *tally, acc *accuracy) {
	out.values["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	out.values["approx_frac"] = ratio(float64(t.approx), float64(t.n-t.failed))
	out.values["rel_err_p50"] = quantile(acc.relErr, 0.5)
	out.values["ci_miss_frac"] = ratio(float64(acc.ciMiss), float64(acc.cells))
	out.values["core.zero_width_ci_cells"] = float64(acc.zeroWidth)
	out.values["core.unknown_err_cells"] = float64(acc.unknown)
	out.info["approx_cells_checked"] = acc.cells
}

// perLayer fills the per-layer metrics from the traced side's spans and
// counters, and the tracing overhead against the untraced side.
func perLayer(out *output, tr *tracer, from int, plain, traced *tally) {
	lt := tr.totals(from)
	n := float64(lt.queries)
	out.values["core.self_ms_per_query"] = ratio(ms(lt.querySelf), n)
	out.values["core.db_calls_per_query"] = ratio(float64(lt.dbCalls), n)
	out.values["core.prefixes_per_query"] = ratio(float64(traced.prefixes), float64(traced.n-traced.failed))
	out.values["core.rescan_ratio"] = ratio(float64(traced.rowsAll), float64(traced.rowsLast))
	out.values["engine.ms_per_query"] = ratio(ms(lt.dbTime), n)
	out.values["engine.rows_scanned_per_query"] = ratio(float64(lt.rowsScanned), n)
	out.values["engine.rows_scanned_per_row_returned"] = ratio(float64(lt.rowsScanned), float64(traced.rowsOut))
	out.values["sqlparser.parse_us_per_query"] = ratio(float64(lt.parse)/1e3, n)
	out.values["process.alloc_mb_per_query"] = ratio(float64(plain.allocBytes)/1e6, float64(plain.n))
	out.values["process.gc_cpu_frac"] = plain.gcFrac()
	out.values["trace.overhead_frac"] = ratio(quantile(traced.latMs, 0.5), quantile(plain.latMs, 0.5)) - 1
	out.info["traced_query_samples"] = traced.n
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func medians(byKey map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(byKey))
	for k, v := range byKey {
		out[k] = median(v)
	}
	return out
}

func speedups(exactMs, approxMs map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(exactMs))
	for id, ex := range exactMs {
		if a := median(approxMs[id]); a > 0 {
			out[id] = median(ex) / a
		}
	}
	return out
}

// quantile interpolates linearly between order statistics; 0 for no data.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, 0 when den is 0 (JSON has no NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// phaseLog prints how long each phase of a run took to standard error.
type phaseLog struct{ last time.Time }

func newPhaseLog() *phaseLog { return &phaseLog{last: time.Now()} }

func (p *phaseLog) done(name string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "perfbench: %s %.2fs\n", name, now.Sub(p.last).Seconds())
	p.last = now
}
