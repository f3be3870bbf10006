package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"verdictdb/internal/sqlparser"
)

// relation is an intermediate result: a schema of (qualifier, name) columns
// plus data. A base-table scan carries its columnar snapshot in src and
// materializes boxed rows only when a consumer needs the row view (joins,
// subqueries, interpreted evaluation); derived tables and join outputs are
// row-major from the start.
type relation struct {
	qualifiers []string // per-column table qualifier ("" if none)
	names      []string // per-column name
	rows       [][]Value
	src        *colSource // columnar source for base-table scans, else nil
	// spans, when set, is the row count of each chunk relSource cuts rows
	// into (the row hash join's output chunks); nil cuts chunkRows blocks.
	spans []int

	// Resolution maps, built once on first lookup. The Once makes the
	// build safe when morsel workers' private envs resolve against the
	// same relation concurrently.
	idxOnce   sync.Once
	qualified map[string]int // "qual.name" (lower) -> index
	bare      map[string]int // "name" (lower) -> index; ambiguousIdx if dup
}

const ambiguousIdx = AmbiguousColIndex

func newRelation(quals, names []string, rows [][]Value) *relation {
	return &relation{qualifiers: quals, names: names, rows: rows}
}

func newColRelation(quals, names []string, src *colSource) *relation {
	return &relation{qualifiers: quals, names: names, src: src}
}

func (r *relation) width() int { return len(r.names) }

// numRows is the relation's cardinality without forcing materialization.
func (r *relation) numRows() int {
	if r.rows == nil && r.src != nil {
		return r.src.nrows
	}
	return len(r.rows)
}

func (r *relation) buildIndex() {
	r.qualified = make(map[string]int, len(r.names))
	r.bare = make(map[string]int, len(r.names))
	//verdict:nocharge name index: one entry per schema column, not row-scale
	for i, n := range r.names {
		low := strings.ToLower(n)
		if q := r.qualifiers[i]; q != "" {
			r.qualified[strings.ToLower(q)+"."+low] = i //verdict:nocharge schema-width
		}
		if prev, ok := r.bare[low]; ok && prev != i {
			r.bare[low] = ambiguousIdx //verdict:nocharge schema-width
		} else {
			r.bare[low] = i //verdict:nocharge schema-width
		}
	}
}

// find maps a column reference to a column index without building an
// error: -1 when the relation has no such column, ambiguousIdx when a bare
// name matches several columns (an error even when enclosing scopes know
// the name, unlike absence).
func (r *relation) find(table, name string) int {
	r.idxOnce.Do(r.buildIndex)
	low := strings.ToLower(name)
	if table != "" {
		if idx, ok := r.qualified[strings.ToLower(table)+"."+low]; ok {
			return idx
		}
		return -1
	}
	if idx, ok := r.bare[low]; ok {
		return idx
	}
	return -1
}

// canResolve reports whether the reference resolves to exactly one column.
func (r *relation) canResolve(table, name string) bool {
	return r.find(table, name) >= 0
}

// queryCtx carries per-query state through execution.
type queryCtx struct {
	eng     *Engine
	scanned int64 // base-table rows read
	depth   int   // subquery nesting guard

	// Lifecycle control (lifecycle.go): the caller's context, the optional
	// memory gauge, the poll counter for serial loops (unsynchronized —
	// morsel workers call pollAbort directly), and the SQL for InternalError
	// provenance.
	ctx   context.Context
	mem   *memGauge
	polls int
	query string

	// Correlated-subquery memoization: a correlated scalar subquery is
	// re-evaluated for every outer row, but its result depends only on the
	// outer values it references. outerRefs caches those references per
	// subquery; corrCache memoizes results keyed by their values. This
	// turns the O(outer x inner) naive evaluation into O(distinct keys x
	// inner) — the difference between seconds and hours on TPC-H q17.
	outerRefs map[*sqlparser.SelectStmt][]*sqlparser.ColumnRef
	corrCache map[*sqlparser.SelectStmt]map[string]Value
}

// env is the evaluation environment for one row.
type env struct {
	qc      *queryCtx
	rel     *relation
	row     []Value
	aggVals map[*sqlparser.FuncCall]Value // aggregate results, by AST identity
	winVals map[*sqlparser.FuncCall]Value // window results, by AST identity
	outer   *env                          // enclosing scope for correlated subqueries
	// subqueryCache memoizes uncorrelated scalar/IN subquery results at the
	// query level (shared across rows via pointer).
	subqueryCache map[*sqlparser.SelectStmt]Value
	inSetCache    map[*sqlparser.SelectStmt]map[string]bool
	// cols caches where each column reference resolved: how many scopes
	// out, and the column index there. It lives on the env rather than the
	// shared relation because morsel workers each evaluate through a
	// private env, and an env's scope chain never changes.
	cols map[*sqlparser.ColumnRef]colSlot
}

// colSlot is one cached column resolution: the column idx of the scope
// depth levels out from the env that resolved it.
type colSlot struct{ depth, idx int }

// lookupColumn resolves a column in this scope or any enclosing scope,
// caching the resolution so later rows cost one map probe and no strings or
// errors. A name the innermost scope knows but finds ambiguous is an error —
// it must not fall through to an enclosing scope (or to "unknown column").
func (ev *env) lookupColumn(cr *sqlparser.ColumnRef) (Value, error) {
	if s, ok := ev.cols[cr]; ok {
		scope := ev
		for d := s.depth; d > 0; d-- {
			scope = scope.outer
		}
		return scope.row[s.idx], nil
	}
	depth := 0
	for scope := ev; scope != nil; scope, depth = scope.outer, depth+1 {
		if scope.rel == nil {
			continue
		}
		switch idx := scope.rel.find(cr.Table, cr.Name); {
		case idx == ambiguousIdx:
			return nil, fmt.Errorf("%w %s", ErrAmbiguousColumn, cr.Name)
		case idx >= 0:
			if ev.cols == nil {
				ev.cols = make(map[*sqlparser.ColumnRef]colSlot)
			}
			ev.cols[cr] = colSlot{depth: depth, idx: idx} //verdict:nocharge one entry per column reference in the query text, not per row
			return scope.row[idx], nil
		}
	}
	return nil, fmt.Errorf("engine: unknown column %s", joinName(cr.Table, cr.Name))
}

func errCannotNegate(v Value) error {
	return fmt.Errorf("engine: cannot negate %T", v)
}

func errNotNonBool(v Value) error {
	return fmt.Errorf("engine: NOT applied to non-boolean %T", v)
}

func joinName(table, name string) string {
	if table == "" {
		return name
	}
	return table + "." + name
}

// eval evaluates an expression against the environment.
func (ev *env) eval(e sqlparser.Expr) (Value, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Val, nil
	case *sqlparser.ColumnRef:
		return ev.lookupColumn(x)
	case *sqlparser.BinaryExpr:
		return ev.evalBinary(x)
	case *sqlparser.UnaryExpr:
		v, err := ev.eval(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			switch n := v.(type) {
			case nil:
				return nil, nil
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, errCannotNegate(v)
		case "NOT":
			if v == nil {
				return nil, nil
			}
			b, ok := ToBool(v)
			if !ok {
				return nil, errNotNonBool(v)
			}
			return !b, nil
		}
		return nil, fmt.Errorf("engine: unknown unary op %q", x.Op)
	case *sqlparser.FuncCall:
		if x.Over != nil {
			if ev.winVals != nil {
				if v, ok := ev.winVals[x]; ok {
					return v, nil
				}
			}
			return nil, fmt.Errorf("engine: window function %s not available in this context", x.Name)
		}
		if sqlparser.AggregateFuncs[x.Name] {
			if ev.aggVals != nil {
				if v, ok := ev.aggVals[x]; ok {
					return v, nil
				}
			}
			return nil, fmt.Errorf("engine: aggregate %s not allowed here", x.Name)
		}
		return ev.evalScalarFunc(x)
	case *sqlparser.CaseExpr:
		return ev.evalCase(x)
	case *sqlparser.SubqueryExpr:
		return ev.evalScalarSubquery(x.Select)
	case *sqlparser.InExpr:
		return ev.evalIn(x)
	case *sqlparser.BetweenExpr:
		v, err := ev.eval(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := ev.eval(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := ev.eval(x.Hi)
		if err != nil {
			return nil, err
		}
		if v == nil || lo == nil || hi == nil {
			return nil, nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if x.Not {
			return !in, nil
		}
		return in, nil
	case *sqlparser.LikeExpr:
		v, err := ev.eval(x.X)
		if err != nil {
			return nil, err
		}
		p, err := ev.eval(x.Pattern)
		if err != nil {
			return nil, err
		}
		if v == nil || p == nil {
			return nil, nil
		}
		m := likeMatch(ToStr(v), ToStr(p))
		if x.Not {
			return !m, nil
		}
		return m, nil
	case *sqlparser.IsNullExpr:
		v, err := ev.eval(x.X)
		if err != nil {
			return nil, err
		}
		if x.Not {
			return v != nil, nil
		}
		return v == nil, nil
	case *sqlparser.ExistsExpr:
		rs, err := ev.execSubquery(x.Select)
		if err != nil {
			return nil, err
		}
		found := len(rs.Rows) > 0
		if x.Not {
			return !found, nil
		}
		return found, nil
	case *sqlparser.CastExpr:
		v, err := ev.eval(x.X)
		if err != nil {
			return nil, err
		}
		return castValue(v, x.Type)
	case *sqlparser.IntervalExpr:
		// A bare interval only makes sense inside date arithmetic, which
		// evalBinary handles; reaching here is a query error.
		return nil, fmt.Errorf("engine: INTERVAL outside date arithmetic")
	}
	return nil, fmt.Errorf("engine: cannot evaluate %T", e)
}

func (ev *env) evalBinary(x *sqlparser.BinaryExpr) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := ev.eval(x.L)
		if err != nil {
			return nil, err
		}
		if lb, ok := ToBool(l); ok && !lb {
			return false, nil
		}
		r, err := ev.eval(x.R)
		if err != nil {
			return nil, err
		}
		rb, rok := ToBool(r)
		if rok && !rb {
			return false, nil
		}
		if l == nil || r == nil {
			return nil, nil
		}
		return true, nil
	case "OR":
		l, err := ev.eval(x.L)
		if err != nil {
			return nil, err
		}
		if lb, ok := ToBool(l); ok && lb {
			return true, nil
		}
		r, err := ev.eval(x.R)
		if err != nil {
			return nil, err
		}
		if rb, ok := ToBool(r); ok && rb {
			return true, nil
		}
		if l == nil || r == nil {
			return nil, nil
		}
		return false, nil
	}

	// Date +/- INTERVAL.
	if iv, ok := x.R.(*sqlparser.IntervalExpr); ok && (x.Op == "+" || x.Op == "-") {
		l, err := ev.eval(x.L)
		if err != nil {
			return nil, err
		}
		if l == nil {
			return nil, nil
		}
		return shiftDate(ToStr(l), iv, x.Op == "-")
	}

	l, err := ev.eval(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l == nil || r == nil {
			return nil, nil
		}
		c := Compare(l, r)
		switch x.Op {
		case "=":
			return c == 0, nil
		case "<>":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		}
	case "||":
		if l == nil || r == nil {
			return nil, nil
		}
		return ToStr(l) + ToStr(r), nil
	case "+", "-", "*", "/", "%":
		if l == nil || r == nil {
			return nil, nil
		}
		return arith(x.Op, l, r)
	}
	return nil, fmt.Errorf("engine: unknown operator %q", x.Op)
}

// arith applies a numeric operator. Division always yields float64 (the
// middleware's rewrites depend on exact ratios); +,-,* stay integral when
// both operands are integers; % requires integers.
func arith(op string, l, r Value) (Value, error) {
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt && op != "/" {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "%":
			if ri == 0 {
				return nil, nil
			}
			return li % ri, nil
		}
	}
	lf, lok := ToFloat(l)
	rf, rok := ToFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("engine: non-numeric operand for %q (%T, %T)", op, l, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, nil
		}
		return lf / rf, nil
	case "%":
		// int64(rf) can be 0 for 0 < |rf| < 1; guard both so the modulo
		// below cannot divide by zero.
		if rf == 0 || int64(rf) == 0 {
			return nil, nil
		}
		return float64(int64(lf) % int64(rf)), nil
	}
	return nil, fmt.Errorf("engine: unknown arithmetic op %q", op)
}

func (ev *env) evalCase(x *sqlparser.CaseExpr) (Value, error) {
	if x.Operand != nil {
		op, err := ev.eval(x.Operand)
		if err != nil {
			return nil, err
		}
		for _, w := range x.Whens {
			wv, err := ev.eval(w.Cond)
			if err != nil {
				return nil, err
			}
			if op != nil && wv != nil && Compare(op, wv) == 0 {
				return ev.eval(w.Then)
			}
		}
	} else {
		for _, w := range x.Whens {
			cv, err := ev.eval(w.Cond)
			if err != nil {
				return nil, err
			}
			if b, ok := ToBool(cv); ok && b {
				return ev.eval(w.Then)
			}
		}
	}
	if x.Else != nil {
		return ev.eval(x.Else)
	}
	return nil, nil
}

func (ev *env) evalIn(x *sqlparser.InExpr) (Value, error) {
	v, err := ev.eval(x.X)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	if x.Subquery != nil {
		set, err := ev.inSubquerySet(x.Subquery)
		if err != nil {
			return nil, err
		}
		found := set[GroupKey(v)]
		if x.Not {
			return !found, nil
		}
		return found, nil
	}
	for _, le := range x.List {
		lv, err := ev.eval(le)
		if err != nil {
			return nil, err
		}
		if lv != nil && Compare(v, lv) == 0 {
			if x.Not {
				return false, nil
			}
			return true, nil
		}
	}
	if x.Not {
		return true, nil
	}
	return false, nil
}

// isCorrelated reports whether sel references columns that do not resolve
// inside its own FROM (a conservative syntactic check: any qualified
// reference whose qualifier is not defined inside sel).
func isCorrelated(sel *sqlparser.SelectStmt) bool {
	local := map[string]bool{}
	var collect func(t sqlparser.TableExpr)
	collect = func(t sqlparser.TableExpr) {
		switch tt := t.(type) {
		case *sqlparser.TableRef:
			name := tt.Alias
			if name == "" {
				name = tt.Name
			}
			local[strings.ToLower(name)] = true
		case *sqlparser.DerivedTable:
			local[strings.ToLower(tt.Alias)] = true
		case *sqlparser.JoinExpr:
			collect(tt.Left)
			collect(tt.Right)
		}
	}
	if sel.From != nil {
		collect(sel.From)
	}
	correlated := false
	check := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if cr, ok := x.(*sqlparser.ColumnRef); ok && cr.Table != "" {
				if !local[strings.ToLower(cr.Table)] {
					correlated = true
				}
			}
			return true
		})
	}
	for _, it := range sel.Items {
		check(it.Expr)
	}
	check(sel.Where)
	for _, g := range sel.GroupBy {
		check(g)
	}
	check(sel.Having)
	return correlated
}

func (ev *env) execSubquery(sel *sqlparser.SelectStmt) (*ResultSet, error) {
	if ev.qc.depth > 16 {
		return nil, fmt.Errorf("engine: subquery nesting too deep")
	}
	ev.qc.depth++
	defer func() { ev.qc.depth-- }()
	return execSelectWithOuter(ev.qc, sel, ev)
}

func (ev *env) evalScalarSubquery(sel *sqlparser.SelectStmt) (Value, error) {
	correlated := isCorrelated(sel)
	if ev.subqueryCache != nil && !correlated {
		if v, ok := ev.subqueryCache[sel]; ok {
			return v, nil
		}
	}
	// Correlated subqueries memoize on the outer values they reference.
	var corrKey string
	if correlated {
		key, ok, err := ev.correlationKey(sel)
		if err != nil {
			return nil, err
		}
		if ok {
			corrKey = key
			if byKey := ev.qc.corrCache[sel]; byKey != nil {
				if v, hit := byKey[corrKey]; hit {
					return v, nil
				}
			}
		} else {
			correlated = false // unkeyable: fall through to direct eval
			corrKey = ""
		}
	}
	rs, err := ev.execSubquery(sel)
	if err != nil {
		return nil, err
	}
	var v Value
	switch {
	case len(rs.Rows) == 0:
		v = nil
	case len(rs.Rows) == 1 && len(rs.Rows[0]) == 1:
		v = rs.Rows[0][0]
	case len(rs.Rows[0]) != 1:
		return nil, fmt.Errorf("engine: scalar subquery returned %d columns", len(rs.Rows[0]))
	default:
		return nil, fmt.Errorf("engine: scalar subquery returned %d rows", len(rs.Rows))
	}
	switch {
	case correlated && corrKey != "":
		if ev.qc.corrCache == nil {
			ev.qc.corrCache = map[*sqlparser.SelectStmt]map[string]Value{}
		}
		byKey := ev.qc.corrCache[sel]
		if byKey == nil {
			byKey = map[string]Value{}
			ev.qc.corrCache[sel] = byKey
		}
		byKey[corrKey] = v
	case !correlated && ev.subqueryCache != nil && !isCorrelated(sel):
		ev.subqueryCache[sel] = v
	}
	return v, nil
}

// correlationKey renders the current values of all outer references inside
// sel into a cache key. ok is false when a reference cannot be resolved in
// the current scope (no memoization then).
func (ev *env) correlationKey(sel *sqlparser.SelectStmt) (string, bool, error) {
	refs, cached := ev.qc.outerRefs[sel]
	if !cached {
		refs = collectOuterRefs(sel)
		if ev.qc.outerRefs == nil {
			ev.qc.outerRefs = map[*sqlparser.SelectStmt][]*sqlparser.ColumnRef{}
		}
		ev.qc.outerRefs[sel] = refs //verdict:nocharge memo keyed by subquery AST node: bounded by query size, not data
	}
	var sb strings.Builder
	for _, cr := range refs {
		v, err := ev.lookupColumn(cr)
		if err != nil {
			return "", false, nil //nolint:nilerr // unkeyable, not fatal
		}
		sb.WriteString(GroupKey(v))
		sb.WriteByte('\x1f')
	}
	return sb.String(), true, nil
}

// collectOuterRefs returns the column references inside sel whose qualifier
// is not a relation defined within sel (i.e. references to enclosing
// scopes), in deterministic order.
func collectOuterRefs(sel *sqlparser.SelectStmt) []*sqlparser.ColumnRef {
	local := map[string]bool{}
	var collect func(t sqlparser.TableExpr)
	collect = func(t sqlparser.TableExpr) {
		switch tt := t.(type) {
		case *sqlparser.TableRef:
			name := tt.Alias
			if name == "" {
				name = tt.Name
			}
			local[strings.ToLower(name)] = true
		case *sqlparser.DerivedTable:
			local[strings.ToLower(tt.Alias)] = true
		case *sqlparser.JoinExpr:
			collect(tt.Left)
			collect(tt.Right)
		}
	}
	if sel.From != nil {
		collect(sel.From)
	}
	var refs []*sqlparser.ColumnRef
	visit := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if cr, ok := x.(*sqlparser.ColumnRef); ok && cr.Table != "" &&
				!local[strings.ToLower(cr.Table)] {
				refs = append(refs, cr)
			}
			return true
		})
	}
	for _, it := range sel.Items {
		visit(it.Expr)
	}
	visit(sel.Where)
	for _, g := range sel.GroupBy {
		visit(g)
	}
	visit(sel.Having)
	return refs
}

func (ev *env) inSubquerySet(sel *sqlparser.SelectStmt) (map[string]bool, error) {
	correlated := isCorrelated(sel)
	if !correlated && ev.inSetCache != nil {
		if s, ok := ev.inSetCache[sel]; ok {
			return s, nil
		}
	}
	rs, err := ev.execSubquery(sel)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool, len(rs.Rows))
	for _, r := range rs.Rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("engine: IN subquery must return one column")
		}
		if r[0] != nil {
			set[GroupKey(r[0])] = true
		}
	}
	if !correlated && ev.inSetCache != nil {
		ev.inSetCache[sel] = set
	}
	return set, nil
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeMatchAt(s, pattern)
}

func likeMatchAt(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeMatchAt(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func castValue(v Value, typ string) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch TypeFromSQL(typ) {
	case TInt:
		if i, ok := ToInt(v); ok {
			return i, nil
		}
		return nil, nil
	case TFloat:
		if f, ok := ToFloat(v); ok {
			return f, nil
		}
		return nil, nil
	case TString:
		return ToStr(v), nil
	case TBool:
		if b, ok := ToBool(v); ok {
			return b, nil
		}
		return nil, nil
	}
	return v, nil
}
