package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/sqlparser"
)

// progressiveTarget is the relative-error target of the progressive
// workload. The samples here hold 1/14 of the rows they hold at scale 0.35,
// so their errors are about 3.7 times larger; at a 0.05 target the
// engine's accuracy forecast sees that no prefix can meet it and jumps
// from the first prefix to the full one. 0.15 keeps the doubling ramp.
const progressiveTarget = 0.15

// query is one workload query bound to its data set, with the exact
// reference it is checked against.
type query struct {
	ds  *dataset
	id  string
	sql string
	agg []bool
	ref *reference
}

// name identifies the query and its data instance in messages and traces.
func (q *query) name() string { return fmt.Sprintf("%s#%d", q.id, q.ds.inst) }

// callResult is one Conn call as the client saw it.
type callResult struct {
	lat      time.Duration
	answer   *verdictdb.Answer
	err      error
	prefixes int   // block prefixes run (1 for single-shot answers)
	rowsAll  int64 // rows scanned over all prefixes
	rowsLast int64 // rows scanned by the final prefix alone
}

// call runs q once through conn the way the workload's client does. With a
// tracer, the call is a root span, and the user SQL's parse (a benchmark-
// side re-parse, timed so the parse layer is visible) its first child.
func call(conn *verdictdb.Conn, q *query, kind string, tr *tracer) callResult {
	var r callResult
	root := -1
	if tr != nil {
		root = tr.begin(spanQuery, q.name())
		p := tr.begin(spanParse, "")
		_, _ = sqlparser.Parse(q.sql) // timing only; the Conn call reports parse errors
		tr.end(p, 0)
	}
	start := time.Now()
	switch kind {
	case "exact":
		r.answer, r.err = conn.Query("bypass " + q.sql)
	case "progressive":
		var lastCum int64
		r.answer, r.err = conn.QueryProgressive(q.sql, progressiveTarget, func(u verdictdb.ProgressiveUpdate) bool {
			if !u.Final {
				r.prefixes++
				lastCum = u.Answer.RowsScanned
			}
			return true
		})
		if r.err == nil {
			r.prefixes++
			r.rowsAll = r.answer.RowsScanned
			r.rowsLast = r.rowsAll - lastCum
		}
	default:
		r.answer, r.err = conn.Query(q.sql)
	}
	r.lat = time.Since(start)
	if tr != nil {
		tr.end(root, 0)
	}
	if kind != "progressive" && r.err == nil {
		r.prefixes = 1
		r.rowsAll = r.answer.RowsScanned
		r.rowsLast = r.rowsAll
	}
	return r
}

// tally accumulates one side (traced or untraced) of a run. wall is the
// client's time in the timed loop: Conn calls back to back (and, on
// ingest, the write cycles), without the answer checks.
type tally struct {
	latMs    []float64
	wall     time.Duration
	n        int
	failed   int
	approx   int
	rowsOut  int64
	prefixes int
	rowsAll  int64
	rowsLast int64
	errs     []string
	// approxPrefixes holds the block prefixes each approximate answer ran.
	approxPrefixes []float64

	procDelta
}

func (t *tally) add(q *query, r callResult) {
	t.n++
	t.latMs = append(t.latMs, ms(r.lat))
	err := r.err
	if err != nil {
		err = fmt.Errorf("%s: %w", q.name(), err)
	} else {
		err = check(q, r.answer)
	}
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	if r.answer.Approximate {
		t.approx++
		t.approxPrefixes = append(t.approxPrefixes, float64(r.prefixes))
	}
	t.rowsOut += int64(len(r.answer.Rows))
	t.prefixes += r.prefixes
	t.rowsAll += r.rowsAll
	t.rowsLast += r.rowsLast
}

// procDelta is the process-level cost of a stretch of work: bytes
// allocated, and GC CPU time against all CPU time.
type procDelta struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

type procSnap struct {
	alloc   uint64
	samples []metrics.Sample
}

func snapProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procSnap{alloc: m.TotalAlloc, samples: s}
}

func (p *procDelta) addSince(s procSnap) {
	now := snapProc()
	p.allocBytes += now.alloc - s.alloc
	p.gcCPU += now.samples[0].Value.Float64() - s.samples[0].Value.Float64()
	p.totalCPU += now.samples[1].Value.Float64() - s.samples[1].Value.Float64()
}

func (p *procDelta) gcFrac() float64 {
	if p.totalCPU <= 0 {
		return 0
	}
	return p.gcCPU / p.totalCPU
}
