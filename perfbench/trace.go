package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
)

// Span names. Roots are the user-visible calls (a Conn call, or one ingest
// write cycle); children are the layer boundaries the benchmark can time
// from outside: drivers.DB calls, sqlparser.Parse, Builder.AppendBatch and
// Engine.Flush.
const (
	spanQuery      = "verdictdb.Conn.Query"
	spanWrite      = "ingest.write_cycle"
	spanInsert     = "verdictdb.Conn.Exec"
	spanParse      = "sqlparser.Parse"
	spanAppend     = "sampling.Builder.AppendBatch"
	spanFlush      = "engine.Engine.Flush"
	spanDBPrefix   = "drivers.DB."
	maxSQLInTraces = 160
)

// span is one timed interval. Spans of one root call share Trace; Parent
// is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int64  `json:"rows_scanned,omitempty"`
	SQL    string `json:"sql,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends. It
// serves the single client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	trace int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span; a span opened with an
// empty stack is a root and starts a new trace id.
func (t *tracer) begin(name, sql string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.trace++
	}
	if len(sql) > maxSQLInTraces {
		sql = sql[:maxSQLInTraces]
	}
	t.spans = append(t.spans, span{
		Name: name, Trace: t.trace, Parent: parent, SQL: sql,
		Start: int64(time.Since(t.t0)),
	})
	idx := len(t.spans) - 1
	t.stack = append(t.stack, idx)
	return idx
}

func (t *tracer) end(idx int, rows int64) {
	t.spans[idx].End = int64(time.Since(t.t0))
	t.spans[idx].Rows = rows
	t.stack = t.stack[:len(t.stack)-1]
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func() error) error {
	idx := t.begin(name, "")
	err := fn()
	t.end(idx, 0)
	return err
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// layerTotals folds spans [from, len) into per-layer totals: for every
// root, its duration and the self time left after its direct children;
// engine time and rows from the drivers.DB spans; parse time; and the
// durations of the write-path spans.
type layerTotals struct {
	queries     int
	querySelf   time.Duration // root minus direct children, query roots
	dbCalls     int           // drivers.DB calls under query roots
	dbTime      time.Duration // drivers.DB time under query roots
	rowsScanned int64         // rows scanned by drivers.DB calls under query roots
	parse       time.Duration // sqlparser.Parse under query roots

	insert  []float64 // per write cycle: drivers.DB time of the base insert, ms
	appends []float64 // per write cycle: Builder.AppendBatch total, ms
	flushes []float64 // per write cycle: Engine.Flush, ms
}

func (t *tracer) totals(from int) layerTotals {
	var lt layerTotals
	spans := t.spans[from:]
	local := func(i int) int { return i - from } // span index -> spans index
	children := make([]time.Duration, len(spans))
	for i := range spans {
		if p := local(spans[i].Parent); p >= 0 {
			children[p] += spans[i].dur()
		}
	}
	// Spans are appended in start order, so a root precedes its subtree
	// and one write cycle's spans are contiguous.
	root := -1
	var ins, app, fl float64
	closeWrite := func() {
		if root >= 0 && spans[root].Name == spanWrite {
			lt.insert = append(lt.insert, ins)
			lt.appends = append(lt.appends, app)
			lt.flushes = append(lt.flushes, fl)
		}
		ins, app, fl = 0, 0, 0
	}
	for i := range spans {
		s := &spans[i]
		p := local(s.Parent)
		if p < 0 {
			closeWrite()
			root = i
			if s.Name == spanQuery {
				lt.queries++
				lt.querySelf += s.dur() - children[i]
			}
			continue
		}
		if root < 0 {
			continue
		}
		isDB := strings.HasPrefix(s.Name, spanDBPrefix)
		switch spans[root].Name {
		case spanQuery:
			switch {
			case isDB:
				lt.dbCalls++
				lt.dbTime += s.dur()
				lt.rowsScanned += s.Rows
			case s.Name == spanParse:
				lt.parse += s.dur()
			}
		case spanWrite:
			switch {
			case isDB && spans[p].Name == spanInsert:
				ins += ms(s.dur())
			case s.Name == spanAppend:
				app += ms(s.dur())
			case s.Name == spanFlush:
				fl += ms(s.dur())
			}
		}
	}
	closeWrite()
	return lt
}

// tracedDB is the timing drivers.DB wrapper used only on traced passes:
// every method forwards to the wrapped driver, and SQL-carrying calls
// record a sqlparser.Parse span (the parse the engine repeats on every
// statement) followed by the call's own span with its rows scanned. The
// untraced passes use the plain *drivers.Driver, so tracing costs them
// nothing.
type tracedDB struct {
	inner drivers.DB
	tr    *tracer
}

var _ drivers.DB = tracedDB{}

func (d tracedDB) Name() string               { return d.inner.Name() }
func (d tracedDB) Dialect() sqlparser.Dialect { return d.inner.Dialect() }
func (d tracedDB) Overhead() time.Duration    { return d.inner.Overhead() }
func (d tracedDB) Exec(sql string) error      { return d.ExecContext(context.Background(), sql) }
func (d tracedDB) Query(sql string) (*engine.ResultSet, error) {
	return d.QueryContext(context.Background(), sql)
}

func (d tracedDB) QueryTimed(sql string) (*engine.ResultSet, time.Duration, error) {
	return d.QueryTimedContext(context.Background(), sql)
}

// parse times the statement's parse as a sibling of the call span.
func (d tracedDB) parse(sql string) {
	idx := d.tr.begin(spanParse, "")
	_, _ = sqlparser.Parse(sql) // timing only: the engine reports any parse error itself
	d.tr.end(idx, 0)
}

func (d tracedDB) ExecContext(ctx context.Context, sql string) error {
	d.parse(sql)
	idx := d.tr.begin(spanDBPrefix+"Exec", sql)
	err := d.inner.ExecContext(ctx, sql)
	d.tr.end(idx, 0)
	return err
}

func (d tracedDB) QueryContext(ctx context.Context, sql string) (*engine.ResultSet, error) {
	d.parse(sql)
	idx := d.tr.begin(spanDBPrefix+"Query", sql)
	rs, err := d.inner.QueryContext(ctx, sql)
	d.tr.end(idx, rowsOf(rs))
	return rs, err
}

func (d tracedDB) QueryTimedContext(ctx context.Context, sql string) (*engine.ResultSet, time.Duration, error) {
	d.parse(sql)
	idx := d.tr.begin(spanDBPrefix+"QueryTimed", sql)
	rs, el, err := d.inner.QueryTimedContext(ctx, sql)
	d.tr.end(idx, rowsOf(rs))
	return rs, el, err
}

func (d tracedDB) Columns(table string) ([]string, error) {
	idx := d.tr.begin(spanDBPrefix+"Columns", table)
	cols, err := d.inner.Columns(table)
	d.tr.end(idx, 0)
	return cols, err
}

func (d tracedDB) RowCount(table string) (int64, error) {
	idx := d.tr.begin(spanDBPrefix+"RowCount", table)
	n, err := d.inner.RowCount(table)
	d.tr.end(idx, 0)
	return n, err
}

func rowsOf(rs *engine.ResultSet) int64 {
	if rs == nil {
		return 0
	}
	return rs.RowsScanned
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
