package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	verdictdb "verdictdb"
	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
)

// aggColumns marks the output columns of a query's top-level select list
// that contain an aggregate: the cells approximate answers estimate. The
// rest are group (key) columns. nil when the select list has a star.
func aggColumns(sql string) ([]bool, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	agg := make([]bool, len(sel.Items))
	for i, it := range sel.Items {
		if it.Star {
			return nil, nil
		}
		agg[i] = sqlparser.ContainsAggregate(it.Expr)
	}
	return agg, nil
}

// canonicalRows renders rows as sorted strings so two answers compare
// independent of row order. Floats keep 12 significant digits: the row
// interpreter and the vectorized engine may sum in different orders.
func canonicalRows(rows [][]engine.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&b, "%.12g\x1f", f)
			} else {
				fmt.Fprintf(&b, "%v\x1f", v)
			}
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// sameRows reports whether an exact answer equals the reference.
func sameRows(ref []string, a *verdictdb.Answer) bool {
	got := canonicalRows(a.Rows)
	if len(got) != len(ref) {
		return false
	}
	for i := range got {
		if got[i] != ref[i] {
			return false
		}
	}
	return true
}

// reference is one query's exact answer from the engine's row interpreter.
type reference struct {
	answer *verdictdb.Answer
	canon  []string
	byKey  map[string][]engine.Value
}

func newReference(a *verdictdb.Answer, agg []bool) *reference {
	ref := &reference{answer: a, canon: canonicalRows(a.Rows), byKey: map[string][]engine.Value{}}
	for _, row := range a.Rows {
		ref.byKey[groupKey(row, agg)] = row
	}
	return ref
}

func groupKey(row []engine.Value, agg []bool) string {
	var b strings.Builder
	for c, v := range row {
		if c < len(agg) && !agg[c] {
			b.WriteString(engine.GroupKey(v))
			b.WriteByte('\x1f')
		}
	}
	return b.String()
}

// check validates one answer against the query's reference, when it has
// one: the columns must match, and an exact answer (bypass or passthrough)
// must equal the reference. An approximate answer must carry a finite
// number in every aggregate cell it returns. Approximate group sets are not compared: a
// LIMIT or HAVING over estimates may legitimately pick other groups.
func check(q *query, a *verdictdb.Answer) error {
	ref := q.ref
	if ref != nil && len(a.Cols) != len(ref.answer.Cols) {
		return fmt.Errorf("%s: %d columns, reference has %d", q.name(), len(a.Cols), len(ref.answer.Cols))
	}
	if !a.Approximate {
		if ref != nil && !sameRows(ref.canon, a) {
			return fmt.Errorf("%s: exact answer differs from the row-interpreter reference", q.name())
		}
		return nil
	}
	for r, row := range a.Rows {
		for c, v := range row {
			if c >= len(q.agg) || !q.agg[c] || v == nil {
				continue
			}
			f, ok := engine.ToFloat(v)
			if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("%s: row %d column %s is not a finite estimate: %v", q.name(), r, a.Cols[c], v)
			}
		}
	}
	return nil
}

// accuracy tallies the true error of approximate aggregate cells against
// the exact reference, matched by group key.
type accuracy struct {
	relErr    []float64 // |approx - exact| / |exact|, cells with exact != 0
	cells     int       // approximate aggregate cells matched to the reference
	ciMiss    int       // cells whose interval excludes the exact value
	zeroWidth int       // cells with a zero-width interval
	unknown   int       // cells whose error is unknown (NaN stderr)
}

func (acc *accuracy) add(q *query, a *verdictdb.Answer) {
	if !a.Approximate {
		return
	}
	for r, row := range a.Rows {
		erow, ok := q.ref.byKey[groupKey(row, q.agg)]
		if !ok {
			continue
		}
		for c := range row {
			if c >= len(q.agg) || !q.agg[c] || c >= len(erow) {
				continue
			}
			av, aok := engine.ToFloat(row[c])
			ev, eok := engine.ToFloat(erow[c])
			if !aok || !eok {
				continue
			}
			acc.cells++
			lo, hi, ok := a.ConfidenceInterval(r, c)
			if !ok {
				acc.unknown++
				continue
			}
			if hi == lo {
				acc.zeroWidth++
			}
			if ev < lo || ev > hi {
				acc.ciMiss++
			}
			if ev != 0 {
				acc.relErr = append(acc.relErr, math.Abs(av-ev)/math.Abs(ev))
			}
		}
	}
}
