package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
)

// ResultSet is the output of a query: column names plus rows. RowsScanned
// counts base-table rows read while answering, which the benchmark harness
// uses as an engine-independent I/O measure.
type ResultSet struct {
	Cols        []string
	Rows        [][]Value
	RowsScanned int64

	colOnce sync.Once
	colIdx  map[string]int
}

// ColIndex returns the index of the named output column, -1 when absent,
// or AmbiguousColIndex when several output columns share the name
// case-insensitively. The lowercase lookup map is built once on first use.
func (rs *ResultSet) ColIndex(name string) int {
	rs.colOnce.Do(func() {
		rs.colIdx = buildLowerIndex(rs.Cols)
	})
	if i, ok := rs.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Query parses and executes a SELECT statement.
func (e *Engine) Query(sql string) (*ResultSet, error) {
	return e.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a context: execution polls ctx between chunks
// (or every pollEvery rows on interpreted paths) and returns ctx.Err() with
// every morsel worker drained; a memory budget carried by ctx (or the
// engine default) aborts with ErrMemoryBudget; panics anywhere below are
// contained into *InternalError, leaving the engine usable.
func (e *Engine) QueryContext(ctx context.Context, sql string) (rs *ResultSet, err error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: Query requires SELECT, got %T", stmt)
	}
	defer containPanic(&err, sql)
	if err := faultpoint.Hit(faultpoint.SiteEngineQuery); err != nil {
		return nil, err
	}
	qc := e.newQueryCtx(ctx, sql)
	rs, err = execSelectWithOuter(qc, sel, nil)
	if err != nil {
		return nil, stampQuery(err, sql)
	}
	rs.RowsScanned = qc.scanned
	return rs, nil
}

// Exec parses and executes any statement. SELECTs return their result set;
// DDL/DML return an empty result set.
func (e *Engine) Exec(sql string) (*ResultSet, error) {
	return e.ExecContext(context.Background(), sql)
}

// ExecContext is Exec under a context; see QueryContext for the contract.
func (e *Engine) ExecContext(ctx context.Context, sql string) (*ResultSet, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.execStmtContext(ctx, stmt, sql)
}

// ExecStmt executes an already-parsed statement.
func (e *Engine) ExecStmt(stmt sqlparser.Statement) (*ResultSet, error) {
	return e.ExecStmtContext(context.Background(), stmt)
}

// ExecStmtContext executes an already-parsed statement under a context.
func (e *Engine) ExecStmtContext(ctx context.Context, stmt sqlparser.Statement) (*ResultSet, error) {
	return e.execStmtContext(ctx, stmt, "")
}

func (e *Engine) execStmtContext(ctx context.Context, stmt sqlparser.Statement, sql string) (rs *ResultSet, err error) {
	defer containPanic(&err, sql)
	rs, err = e.execStmtInner(ctx, stmt)
	if err != nil {
		return nil, stampQuery(err, sql)
	}
	return rs, nil
}

func (e *Engine) execStmtInner(ctx context.Context, stmt sqlparser.Statement) (*ResultSet, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		qc := e.newQueryCtx(ctx, "")
		rs, err := execSelectWithOuter(qc, s, nil)
		if err != nil {
			return nil, err
		}
		rs.RowsScanned = qc.scanned
		return rs, nil
	case *sqlparser.CreateTableStmt:
		if s.AsSelect != nil {
			qc := e.newQueryCtx(ctx, "")
			rs, err := execSelectWithOuter(qc, s.AsSelect, nil)
			if err != nil {
				return nil, err
			}
			cols := make([]Column, len(rs.Cols))
			for i, c := range rs.Cols {
				cols[i] = Column{Name: c, Type: inferColType(rs.Rows, i)}
			}
			if err := e.storeResult(qc, s.Name, cols, rs.Rows, s.IfNotExists); err != nil {
				return nil, err
			}
			return &ResultSet{RowsScanned: qc.scanned}, nil
		}
		cols := make([]Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = Column{Name: c.Name, Type: TypeFromSQL(c.Type)}
		}
		if s.IfNotExists && e.HasTable(s.Name) {
			return &ResultSet{}, nil
		}
		if err := e.CreateTable(s.Name, cols); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case *sqlparser.DropTableStmt:
		if err := e.DropTable(s.Name, s.IfExists); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case *sqlparser.InsertStmt:
		return e.execInsert(ctx, s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func (e *Engine) execInsert(ctx context.Context, s *sqlparser.InsertStmt) (*ResultSet, error) {
	t, err := e.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	// Map insert columns to table positions.
	var colIdx []int
	if len(s.Columns) > 0 {
		for _, c := range s.Columns {
			idx := t.ColIndex(c)
			if idx == AmbiguousColIndex {
				return nil, fmt.Errorf("%w: %q in insert", ErrAmbiguousColumn, c)
			}
			if idx < 0 {
				return nil, fmt.Errorf("engine: unknown column %q in insert", c)
			}
			colIdx = append(colIdx, idx)
		}
	} else {
		for i := range t.Cols {
			colIdx = append(colIdx, i)
		}
	}
	qc := e.newQueryCtx(ctx, "")
	var srcRows [][]Value
	if s.Select != nil {
		rs, err := execSelectWithOuter(qc, s.Select, nil)
		if err != nil {
			return nil, err
		}
		srcRows = rs.Rows
	} else {
		ev := &env{qc: qc}
		for _, exprRow := range s.Rows {
			row := make([]Value, len(exprRow))
			for i, ex := range exprRow {
				v, err := ev.eval(ex)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			srcRows = append(srcRows, row)
		}
	}
	out := make([][]Value, 0, len(srcRows))
	for _, src := range srcRows {
		if len(src) != len(colIdx) {
			return nil, fmt.Errorf("engine: insert width mismatch: %d values for %d columns", len(src), len(colIdx))
		}
		row := make([]Value, len(t.Cols))
		for i, idx := range colIdx {
			row[idx] = src[i]
		}
		out = append(out, row)
	}
	if err := e.insertRowsCtx(qc, s.Table, out); err != nil {
		return nil, err
	}
	// Surface a seal-time budget overrun even when the insert was too short
	// for the amortized per-row tick to poll.
	if err := qc.pollAbort(); err != nil {
		return nil, err
	}
	return &ResultSet{}, nil
}

func inferColType(rows [][]Value, col int) ColType {
	for _, r := range rows {
		if r[col] != nil {
			return InferType(r[col])
		}
	}
	return TAny
}

// entry is one candidate output row before projection: the representative
// underlying row plus computed aggregate/window values.
type entry struct {
	row     []Value
	aggVals map[*sqlparser.FuncCall]Value
	winVals map[*sqlparser.FuncCall]Value
}

// execSelectWithOuter runs one SELECT block. outer provides the enclosing
// scope for correlated subqueries, or nil at top level.
func execSelectWithOuter(qc *queryCtx, sel *sqlparser.SelectStmt, outer *env) (*ResultSet, error) {
	// Cancellation gate per SELECT block: subqueries — including correlated
	// ones evaluated per outer row — re-enter here, so even O(outer × inner)
	// interpreted plans observe cancellation promptly.
	if err := qc.pollAbort(); err != nil {
		return nil, err
	}
	rel, err := buildFrom(qc, sel.From, outer, collectRangePreds(sel.Where))
	if err != nil {
		return nil, err
	}

	baseEnv := &env{
		qc:            qc,
		rel:           rel,
		outer:         outer,
		subqueryCache: map[*sqlparser.SelectStmt]Value{},
		inSetCache:    map[*sqlparser.SelectStmt]map[string]bool{},
	}
	if outer != nil {
		baseEnv.subqueryCache = outer.subqueryCache
		baseEnv.inSetCache = outer.inSetCache
	}

	// Collect aggregate and window calls from the output clauses.
	aggCalls, winCalls := collectCalls(sel)
	hasAgg := len(aggCalls) > 0 || len(sel.GroupBy) > 0

	var entries []*entry
	var cols []string
	var projRows [][]Value
	var outColsPre []outCol // derived by the vectorized gate, reused by project
	projDone := false
	if hasAgg {
		// Fused scan→filter→aggregate: chunk morsels when every expression
		// lowers, the serial interpreter otherwise.
		entries, err = newScanPlan(qc, rel, sel, aggCalls).run(baseEnv)
		if err != nil {
			return nil, err
		}
	} else {
		// Non-aggregate select: fused filter→project over chunk morsels when
		// every clause lowers. ORDER BY is restricted to output
		// aliases/positions because that pipeline never materializes the
		// pre-projection rows the expression form would need.
		if len(winCalls) == 0 && sel.Having == nil {
			outCols, ocErr := deriveOutCols(rel, sel)
			if ocErr == nil {
				outColsPre = outCols
			}
			if ocErr == nil && orderByOutputsOnly(sel, outCols) {
				if vs := buildVecSelect(qc, rel, outCols, sel.Where); vs != nil {
					projRows, err = vs.run(relSource(rel))
					if err != nil {
						return nil, err
					}
					cols = make([]string, len(outCols))
					for i, oc := range outCols {
						cols[i] = oc.name
					}
					projDone = true
				}
			}
		}
		if !projDone {
			rows, ferr := filterRows(baseEnv, rel, sel.Where)
			if ferr != nil {
				return nil, ferr
			}
			entries = make([]*entry, len(rows))
			for i, row := range rows {
				entries[i] = &entry{row: row}
			}
		}
	}

	// HAVING.
	if sel.Having != nil {
		kept := entries[:0:0]
		for _, en := range entries {
			if err := baseEnv.qc.tick(); err != nil {
				return nil, err
			}
			baseEnv.row = en.row
			baseEnv.aggVals = en.aggVals
			v, err := baseEnv.eval(sel.Having)
			if err != nil {
				return nil, err
			}
			if b, ok := ToBool(v); ok && b {
				kept = append(kept, en)
			}
		}
		entries = kept
	}
	baseEnv.aggVals = nil

	if !projDone {
		// Window functions over the (possibly aggregated) entries.
		if len(winCalls) > 0 {
			if err := computeWindows(baseEnv, entries, winCalls); err != nil {
				return nil, err
			}
		}

		// Projection.
		cols, projRows, err = project(baseEnv, rel, entries, sel, outColsPre)
		if err != nil {
			return nil, err
		}
	}

	// DISTINCT.
	if sel.Distinct {
		seen := map[string]bool{}
		kept := projRows[:0:0]
		keptEntries := entries[:0:0]
		var buf []byte
		for i, pr := range projRows {
			buf = appendRowKey(buf[:0], pr)
			if !seen[string(buf)] {
				seen[string(buf)] = true
				kept = append(kept, pr)
				if i < len(entries) {
					keptEntries = append(keptEntries, entries[i])
				}
			}
		}
		projRows = kept
		entries = keptEntries
	}

	// ORDER BY.
	if len(sel.OrderBy) > 0 {
		if err := orderRows(baseEnv, sel, cols, entries, projRows); err != nil {
			return nil, err
		}
	}

	// LIMIT.
	if sel.Limit != nil {
		baseEnv.row = nil
		lv, err := baseEnv.eval(sel.Limit)
		if err != nil {
			return nil, err
		}
		n, ok := ToInt(lv)
		if !ok || n < 0 {
			return nil, fmt.Errorf("engine: bad LIMIT value %v", lv)
		}
		if int64(len(projRows)) > n {
			projRows = projRows[:n]
		}
	}

	rs := &ResultSet{Cols: cols, Rows: projRows}

	// UNION continuation.
	if sel.Union != nil {
		rhs, err := execSelectWithOuter(qc, sel.Union, outer)
		if err != nil {
			return nil, err
		}
		if len(rhs.Cols) != len(rs.Cols) {
			return nil, fmt.Errorf("engine: UNION column count mismatch (%d vs %d)", len(rs.Cols), len(rhs.Cols))
		}
		combined := append(rs.Rows, rhs.Rows...)
		if !sel.UnionAll {
			seen := map[string]bool{}
			dedup := combined[:0:0]
			var buf []byte
			for _, r := range combined {
				buf = appendRowKey(buf[:0], r)
				if !seen[string(buf)] {
					seen[string(buf)] = true
					dedup = append(dedup, r)
				}
			}
			combined = dedup
		}
		rs.Rows = combined
	}
	return rs, nil
}

// appendRowKey renders a whole row into one reusable dedup-key buffer.
func appendRowKey(buf []byte, row []Value) []byte {
	for _, v := range row {
		buf = appendGroupKey(buf, v)
		buf = append(buf, keySep)
	}
	return buf
}

// filterRows returns the relation's rows that pass WHERE, in row order, for
// the plans the rest of the pipeline interprets. A WHERE that lowers runs
// as a chunk-morsel filter that boxes only the surviving rows — its
// evaluation order cannot matter, it draws nothing from the RNG. Any other
// WHERE is interpreted row by row over the full row view, so impure
// predicates draw from the engine RNG in a fixed order.
func filterRows(ev *env, rel *relation, where sqlparser.Expr) ([][]Value, error) {
	if where != nil {
		all := make([]outCol, rel.width())
		for i, name := range rel.names {
			all[i] = outCol{name: name, idx: i}
		}
		if vs := buildVecSelect(ev.qc, rel, all, where); vs != nil {
			return vs.run(relSource(rel))
		}
	}
	rows, err := ev.qc.materialize(rel)
	if err != nil || where == nil {
		return rows, err
	}
	filtered := rows[:0:0]
	for _, row := range rows {
		if err := ev.qc.tick(); err != nil {
			return nil, err
		}
		ev.row = row
		v, err := ev.eval(where)
		if err != nil {
			return nil, err
		}
		if b, ok := ToBool(v); ok && b {
			filtered = append(filtered, row)
		}
	}
	return filtered, nil
}

// collectCalls gathers aggregate calls and window calls referenced by the
// SELECT items, HAVING, and ORDER BY clauses.
func collectCalls(sel *sqlparser.SelectStmt) (aggs, wins []*sqlparser.FuncCall) {
	seenAgg := map[*sqlparser.FuncCall]bool{}
	seenWin := map[*sqlparser.FuncCall]bool{}
	visit := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			fc, ok := x.(*sqlparser.FuncCall)
			if !ok {
				return true
			}
			if fc.Over != nil {
				if !seenWin[fc] {
					seenWin[fc] = true
					wins = append(wins, fc)
				}
				return true // descend: args may contain aggregates
			}
			if sqlparser.AggregateFuncs[fc.Name] {
				if !seenAgg[fc] {
					seenAgg[fc] = true
					aggs = append(aggs, fc)
				}
				return false // no nested aggregates
			}
			return true
		})
	}
	for _, it := range sel.Items {
		if it.Expr != nil {
			visit(it.Expr)
		}
	}
	if sel.Having != nil {
		visit(sel.Having)
	}
	for _, o := range sel.OrderBy {
		visit(o.Expr)
	}
	return aggs, wins
}

// scanPlan is one SELECT block's scan→filter→aggregate pipeline: the
// WHERE, GROUP BY and aggregate-argument ASTs, run through vector kernels
// when they all lower (vecexec.go) and through the interpreter otherwise.
type scanPlan struct {
	qc       *queryCtx
	eng      *Engine
	rel      *relation
	whereAST sqlparser.Expr // nil when the query has no WHERE
	keyASTs  []sqlparser.Expr
	aggCalls []*sqlparser.FuncCall

	groupBytes int64 // gauge charge per created group
}

func newScanPlan(qc *queryCtx, rel *relation, sel *sqlparser.SelectStmt, aggCalls []*sqlparser.FuncCall) *scanPlan {
	return &scanPlan{
		qc: qc, eng: qc.eng, rel: rel,
		whereAST: sel.Where, keyASTs: sel.GroupBy, aggCalls: aggCalls,
		// Each created group costs a map entry, the accumulators, and a
		// boxed representative row.
		groupBytes: bytesPerGroup + int64(len(aggCalls))*bytesPerAcc + int64(rel.width())*bytesPerValue,
	}
}

// newAccs builds one group's accumulators. Errors (unknown aggregate, bad
// percentile fraction) surface here, on the first group, with the same
// message on every path — validating upfront would allocate sketch state
// just to throw it away.
func (p *scanPlan) newAccs() ([]accumulator, error) {
	accs := make([]accumulator, len(p.aggCalls))
	for i, fc := range p.aggCalls {
		q, err := quantileLiteralArg(fc)
		if err != nil {
			return nil, err
		}
		acc, err := newAccumulator(fc, q, p.qc)
		if err != nil {
			return nil, err
		}
		accs[i] = acc
	}
	return accs, nil
}

// run executes the plan. Pure plans — every expression lowers — run as
// chunk-at-a-time morsels over the relation's columnar source (derived-table
// rows are chunkified), through the kernels or, with vectorization off,
// through the interpreter chunk by chunk. Everything else runs through the
// interpreter serially, filter first and then aggregate, so impure
// expressions draw from the engine RNG in a fixed order.
func (p *scanPlan) run(ev *env) ([]*entry, error) {
	if vp := buildVecPlan(p); vp != nil {
		return vp.run(relSource(p.rel))
	}
	rows, err := filterRows(ev, p.rel, p.whereAST)
	if err != nil {
		return nil, err
	}
	cg := newChunkGroups()
	if err := p.aggregateRows(ev, cg, rows, false); err != nil {
		return nil, err
	}
	return p.finish(cg)
}

// aggregateRows is the interpreted hash aggregation: it filters (when
// applyWhere) and partially aggregates rows into cg through ev. It runs the
// interpreted plans and, with a private env per morsel worker, the
// per-chunk fallback when a vector kernel errors.
func (p *scanPlan) aggregateRows(ev *env, cg *chunkGroups, rows [][]Value, applyWhere bool) error {
	if err := faultpoint.Hit(faultpoint.SiteEngineScanRows); err != nil {
		return err
	}
	var buf []byte
	poll := 0 // local counter: this runs inside morsel workers
	for _, row := range rows {
		if poll++; poll&(pollEvery-1) == 0 {
			if err := p.qc.pollAbort(); err != nil {
				return err
			}
		}
		ev.row = row
		if applyWhere && p.whereAST != nil {
			v, err := ev.eval(p.whereAST)
			if err != nil {
				return err
			}
			if b, ok := ToBool(v); !ok || !b {
				continue
			}
		}
		buf = buf[:0]
		for _, ke := range p.keyASTs {
			v, err := ev.eval(ke)
			if err != nil {
				return err
			}
			buf = appendGroupKey(buf, v)
			buf = append(buf, keySep)
		}
		g, ok := cg.m[string(buf)]
		if !ok {
			accs, err := p.newAccs()
			if err != nil {
				return err
			}
			p.qc.chargeMem(p.groupBytes)
			g = &groupAcc{repr: row, accs: accs}
			key := string(buf)
			cg.m[key] = g
			cg.order = append(cg.order, key)
		}
		for i, fc := range p.aggCalls {
			if fc.Star {
				g.accs[i].addStar()
				continue
			}
			if len(fc.Args) == 0 {
				return fmt.Errorf("engine: aggregate %s requires an argument", fc.Name)
			}
			v, err := ev.eval(fc.Args[0])
			if err != nil {
				return err
			}
			if err := g.accs[i].add(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish converts the merged group state into output entries, emitting the
// single zero-row entry a global aggregate requires.
func (p *scanPlan) finish(cg *chunkGroups) ([]*entry, error) {
	if len(cg.order) == 0 && len(p.keyASTs) == 0 {
		accs, err := p.newAccs()
		if err != nil {
			return nil, err
		}
		cg.m[""] = &groupAcc{repr: make([]Value, p.rel.width()), accs: accs}
		cg.order = append(cg.order, "")
	}
	entries := make([]*entry, 0, len(cg.order))
	for _, key := range cg.order {
		g := cg.m[key]
		av := make(map[*sqlparser.FuncCall]Value, len(p.aggCalls))
		for i, fc := range p.aggCalls {
			av[fc] = g.accs[i].result()
		}
		entries = append(entries, &entry{row: g.repr, aggVals: av})
	}
	return entries, nil
}

// computeWindows fills entry.winVals for every window call. Only aggregate
// functions with OVER (PARTITION BY ...) are supported — the shape
// VerdictDB's rewrites need.
func computeWindows(baseEnv *env, entries []*entry, winCalls []*sqlparser.FuncCall) error {
	for _, wc := range winCalls {
		if !sqlparser.AggregateFuncs[wc.Name] {
			return fmt.Errorf("engine: window function %s not supported", wc.Name)
		}
		// Partition entries.
		parts := map[string][]*entry{}
		var order []string
		var kb []byte
		for _, en := range entries {
			if err := baseEnv.qc.tick(); err != nil {
				return err
			}
			baseEnv.row = en.row
			baseEnv.aggVals = en.aggVals
			kb = kb[:0]
			for _, pe := range wc.Over.PartitionBy {
				v, err := baseEnv.eval(pe)
				if err != nil {
					return err
				}
				kb = appendGroupKey(kb, v)
				kb = append(kb, keySep)
			}
			k := string(kb)
			if _, ok := parts[k]; !ok {
				order = append(order, k)
			}
			parts[k] = append(parts[k], en)
		}
		q, err := quantileLiteralArg(wc)
		if err != nil {
			return err
		}
		for _, k := range order {
			members := parts[k]
			acc, err := newAccumulator(&sqlparser.FuncCall{
				Name: wc.Name, Distinct: wc.Distinct, Star: wc.Star, Args: wc.Args,
			}, q, baseEnv.qc)
			if err != nil {
				return err
			}
			for _, en := range members {
				if err := baseEnv.qc.tick(); err != nil {
					return err
				}
				if wc.Star {
					acc.addStar()
					continue
				}
				baseEnv.row = en.row
				baseEnv.aggVals = en.aggVals
				v, err := baseEnv.eval(wc.Args[0])
				if err != nil {
					return err
				}
				if err := acc.add(v); err != nil {
					return err
				}
			}
			res := acc.result()
			for _, en := range members {
				if en.winVals == nil {
					en.winVals = map[*sqlparser.FuncCall]Value{}
				}
				en.winVals[wc] = res
			}
		}
	}
	baseEnv.aggVals = nil
	return nil
}

// outCol is one output column of a SELECT list: either a direct copy of
// source column idx (expr nil, from star expansion) or an expression.
type outCol struct {
	name string
	expr sqlparser.Expr // nil means direct column copy
	idx  int            // source index for star expansion
}

// deriveOutCols expands the select list into output columns, resolving
// star items against the relation schema.
func deriveOutCols(rel *relation, sel *sqlparser.SelectStmt) ([]outCol, error) {
	var outCols []outCol
	for i, it := range sel.Items {
		switch {
		case it.Star:
			for ci := range rel.names {
				if it.StarTable != "" && !strings.EqualFold(rel.qualifiers[ci], it.StarTable) {
					continue
				}
				outCols = append(outCols, outCol{name: rel.names[ci], expr: nil, idx: ci})
			}
			if it.StarTable != "" {
				found := false
				for ci := range rel.names {
					if strings.EqualFold(rel.qualifiers[ci], it.StarTable) {
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("engine: unknown table %q in %s.*", it.StarTable, it.StarTable)
				}
			}
		default:
			name := it.Alias
			if name == "" {
				name = deriveColName(it.Expr, i)
			}
			outCols = append(outCols, outCol{name: name, expr: it.Expr, idx: -1})
		}
	}
	return outCols, nil
}

// orderByOutputsOnly reports whether every ORDER BY term is a 1-based
// output position or an output alias — the forms orderRows can evaluate
// from the projected rows alone, without the pre-projection entries the
// vectorized pipeline never materializes.
func orderByOutputsOnly(sel *sqlparser.SelectStmt, outCols []outCol) bool {
	for _, ob := range sel.OrderBy {
		if lit, ok := ob.Expr.(*sqlparser.Literal); ok {
			if p, isInt := lit.Val.(int64); isInt && p >= 1 && int(p) <= len(outCols) {
				continue
			}
			return false
		}
		if cr, ok := ob.Expr.(*sqlparser.ColumnRef); ok && cr.Table == "" {
			found := false
			for _, oc := range outCols {
				if strings.EqualFold(oc.name, cr.Name) {
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		return false
	}
	return true
}

// project evaluates the select list for every entry. outCols may carry the
// columns already derived by the caller; nil derives them here.
func project(baseEnv *env, rel *relation, entries []*entry, sel *sqlparser.SelectStmt, outCols []outCol) ([]string, [][]Value, error) {
	if outCols == nil {
		var err error
		outCols, err = deriveOutCols(rel, sel)
		if err != nil {
			return nil, nil, err
		}
	}

	cols := make([]string, len(outCols))
	for i, oc := range outCols {
		cols[i] = oc.name
	}

	// Projection output is freshly boxed rows: charge it up front, so a
	// blow-up (huge unaggregated projection) aborts at the next poll.
	baseEnv.qc.chargeMem(int64(len(entries)) * (int64(len(outCols)) + 2) * bytesPerValue)
	rowsOut := make([][]Value, len(entries))
	for ei, en := range entries {
		if err := baseEnv.qc.tick(); err != nil {
			return nil, nil, err
		}
		baseEnv.row = en.row
		baseEnv.aggVals = en.aggVals
		baseEnv.winVals = en.winVals
		row := make([]Value, len(outCols))
		for i, oc := range outCols {
			if oc.expr == nil {
				row[i] = en.row[oc.idx]
				continue
			}
			v, err := baseEnv.eval(oc.expr)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		rowsOut[ei] = row
	}
	baseEnv.aggVals = nil
	baseEnv.winVals = nil
	return cols, rowsOut, nil
}

func deriveColName(e sqlparser.Expr, pos int) string {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		return x.Name
	case *sqlparser.FuncCall:
		return x.Name
	}
	return fmt.Sprintf("_c%d", pos)
}

// orderRows sorts projRows (and entries, kept in lockstep) by the ORDER BY
// terms. Terms may be output aliases, 1-based positions, or expressions over
// the pre-projection row.
func orderRows(baseEnv *env, sel *sqlparser.SelectStmt, cols []string, entries []*entry, projRows [][]Value) error {
	n := len(projRows)
	keys := make([][]Value, n)
	aliasIdx := func(name string) int {
		for i, c := range cols {
			if strings.EqualFold(c, name) {
				return i
			}
		}
		return -1
	}
	for i := 0; i < n; i++ {
		key := make([]Value, len(sel.OrderBy))
		for j, ob := range sel.OrderBy {
			// Positional: ORDER BY 2.
			if lit, ok := ob.Expr.(*sqlparser.Literal); ok {
				if p, isInt := lit.Val.(int64); isInt && p >= 1 && int(p) <= len(cols) {
					key[j] = projRows[i][p-1]
					continue
				}
			}
			// Output alias.
			if cr, ok := ob.Expr.(*sqlparser.ColumnRef); ok && cr.Table == "" {
				if idx := aliasIdx(cr.Name); idx >= 0 {
					key[j] = projRows[i][idx]
					continue
				}
			}
			if i >= len(entries) {
				return fmt.Errorf("engine: cannot order by expression after DISTINCT")
			}
			baseEnv.row = entries[i].row
			baseEnv.aggVals = entries[i].aggVals
			baseEnv.winVals = entries[i].winVals
			v, err := baseEnv.eval(ob.Expr)
			if err != nil {
				return err
			}
			key[j] = v
		}
		keys[i] = key
	}
	baseEnv.aggVals = nil
	baseEnv.winVals = nil

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j, ob := range sel.OrderBy {
			va, vb := ka[j], kb[j]
			var c int
			switch {
			case va == nil && vb == nil:
				c = 0
			case va == nil:
				c = -1 // NULLs first ascending
			case vb == nil:
				c = 1
			default:
				c = Compare(va, vb)
			}
			if ob.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	permuted := make([][]Value, n)
	for i, id := range idx {
		permuted[i] = projRows[id]
	}
	copy(projRows, permuted)
	if len(entries) == n {
		pe := make([]*entry, n)
		for i, id := range idx {
			pe[i] = entries[id]
		}
		copy(entries, pe)
	}
	return nil
}
