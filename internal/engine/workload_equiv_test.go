package engine_test

import (
	"math"
	"testing"

	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

// Property test: for every TPC-H and Insta benchmark query, the
// morsel-parallel engine must produce the same rows as the serial engine —
// same columns, same row count, order-insensitive group match, float cells
// within tolerance (parallel partial sums reassociate). Run with -race this
// also shakes out data races in the worker fan-out.

func loadedPair(t *testing.T, load func(e *engine.Engine) error) (serial, parallel *engine.Engine) {
	t.Helper()
	serial = engine.NewSeeded(42)
	parallel = engine.NewSeeded(42)
	if err := load(serial); err != nil {
		t.Fatal(err)
	}
	if err := load(parallel); err != nil {
		t.Fatal(err)
	}
	serial.SetParallelism(1)
	parallel.SetParallelism(8)
	return serial, parallel
}

func rowsEquivalent(t *testing.T, id string, s, p *engine.ResultSet) {
	t.Helper()
	if len(s.Cols) != len(p.Cols) {
		t.Fatalf("%s: col count %d vs %d", id, len(s.Cols), len(p.Cols))
	}
	if len(s.Rows) != len(p.Rows) {
		t.Fatalf("%s: row count %d vs %d", id, len(s.Rows), len(p.Rows))
	}
	// Group rows by their non-float cells; compare float cells with
	// tolerance. Workload query outputs all carry their group columns, so
	// keys are unique per row (modulo genuinely identical rows, matched
	// greedily).
	type pending struct {
		row  []engine.Value
		used bool
	}
	byKey := map[string][]*pending{}
	keyOf := func(row []engine.Value) string {
		k := ""
		for _, v := range row {
			if _, isF := v.(float64); isF {
				k += "\x1ff"
				continue
			}
			k += "\x1f" + engine.GroupKey(v)
		}
		return k
	}
	for _, row := range s.Rows {
		k := keyOf(row)
		byKey[k] = append(byKey[k], &pending{row: row})
	}
	for ri, row := range p.Rows {
		k := keyOf(row)
		var match *pending
		for _, cand := range byKey[k] {
			if cand.used {
				continue
			}
			ok := true
			for j, v := range row {
				vf, isF := v.(float64)
				if !isF {
					continue
				}
				cf, cok := cand.row[j].(float64)
				if !cok {
					ok = false
					break
				}
				tol := 1e-9 * math.Max(1, math.Max(math.Abs(vf), math.Abs(cf)))
				if math.Abs(vf-cf) > tol {
					ok = false
					break
				}
			}
			if ok {
				match = cand
				break
			}
		}
		if match == nil {
			t.Fatalf("%s: parallel row %d %v has no serial counterpart", id, ri, row)
		}
		match.used = true
	}
}

// rowsIdentical requires byte-identical results: same columns, same row
// order, same dynamic types, float cells equal to the last bit. The serial
// vectorized scan consumes values in exactly the row order of the row-view
// path, so at parallelism 1 the two pipelines must agree bitwise.
func rowsIdentical(t *testing.T, id string, want, got *engine.ResultSet) {
	t.Helper()
	if len(want.Cols) != len(got.Cols) {
		t.Fatalf("%s: col count %d vs %d", id, len(want.Cols), len(got.Cols))
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: row count %d vs %d", id, len(want.Rows), len(got.Rows))
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			wv, gv := want.Rows[r][c], got.Rows[r][c]
			wf, wok := wv.(float64)
			gf, gok := gv.(float64)
			if wok || gok {
				if !wok || !gok || math.Float64bits(wf) != math.Float64bits(gf) {
					t.Fatalf("%s row %d col %d: %v (%T) vs %v (%T)", id, r, c, wv, wv, gv, gv)
				}
				continue
			}
			if wv != gv {
				t.Fatalf("%s row %d col %d: %v (%T) vs %v (%T)", id, r, c, wv, wv, gv, gv)
			}
		}
	}
}

// vecRowViewEquivalence runs every workload query on two identically
// loaded engines — one vectorized, one forced through the chunk row views
// — and requires byte-identical results, plus an order-insensitive match
// against a morsel-parallel vectorized engine.
func vecRowViewEquivalence(t *testing.T, load func(e *engine.Engine) error, queries []workload.Query) {
	t.Helper()
	vecEng := engine.NewSeeded(42)
	rowEng := engine.NewSeeded(42)
	parEng := engine.NewSeeded(42)
	for _, e := range []*engine.Engine{vecEng, rowEng, parEng} {
		if err := load(e); err != nil {
			t.Fatal(err)
		}
	}
	vecEng.SetParallelism(1)
	rowEng.SetParallelism(1)
	rowEng.SetVectorized(false)
	parEng.SetParallelism(8)
	for _, q := range queries {
		rsRow, err := rowEng.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s row-view: %v", q.ID, err)
		}
		rsVec, err := vecEng.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s vectorized: %v", q.ID, err)
		}
		rowsIdentical(t, q.ID, rsRow, rsVec)
		rsPar, err := parEng.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s parallel vectorized: %v", q.ID, err)
		}
		rowsEquivalent(t, q.ID, rsRow, rsPar)
	}
}

func TestTPCHVectorizedRowViewEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	vecRowViewEquivalence(t, func(e *engine.Engine) error {
		return workload.LoadTPCH(e, 0.02, 42)
	}, workload.TPCHQueries)
}

func TestInstaVectorizedRowViewEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	vecRowViewEquivalence(t, func(e *engine.Engine) error {
		return workload.LoadInsta(e, 0.02, 42)
	}, workload.InstaQueries)
}

// The same equivalence bar with every sealed chunk force-encoded: loading
// happens after the knob is set, so each workload column takes whichever
// encoding the override assigns it rather than what thresholds would pick.
func TestTPCHForcedEncodingsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Setenv("ENGINE_FORCE_ENCODINGS", "1")
	vecRowViewEquivalence(t, func(e *engine.Engine) error {
		return workload.LoadTPCH(e, 0.02, 42)
	}, workload.TPCHQueries)
}

func TestInstaForcedEncodingsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Setenv("ENGINE_FORCE_ENCODINGS", "1")
	vecRowViewEquivalence(t, func(e *engine.Engine) error {
		return workload.LoadInsta(e, 0.02, 42)
	}, workload.InstaQueries)
}

func TestTPCHParallelSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial, parallel := loadedPair(t, func(e *engine.Engine) error {
		return workload.LoadTPCH(e, 0.02, 42)
	})
	for _, q := range workload.TPCHQueries {
		rsS, err := serial.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s serial: %v", q.ID, err)
		}
		rsP, err := parallel.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s parallel: %v", q.ID, err)
		}
		rowsEquivalent(t, q.ID, rsS, rsP)
	}
	if parallel.ParallelScans() == 0 {
		t.Fatal("no TPC-H query took the parallel path")
	}
}

func TestInstaParallelSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial, parallel := loadedPair(t, func(e *engine.Engine) error {
		return workload.LoadInsta(e, 0.02, 42)
	})
	for _, q := range workload.InstaQueries {
		rsS, err := serial.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s serial: %v", q.ID, err)
		}
		rsP, err := parallel.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s parallel: %v", q.ID, err)
		}
		rowsEquivalent(t, q.ID, rsS, rsP)
	}
	if parallel.ParallelScans() == 0 {
		t.Fatal("no Insta query took the parallel path")
	}
}

// TestWorkloadParallelInterpreterIdentical: with the kernels off, pure
// plans still run on the kernels' chunk morsels, every chunk through the
// interpreter, so at any parallelism the interpreter's partial sums merge
// in the same order and every workload answer is byte-identical to the
// vectorized one — the bar exact-answer checks against an interpreter
// reference rely on.
func TestWorkloadParallelInterpreterIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, ds := range []struct {
		load    func(e *engine.Engine) error
		queries []workload.Query
	}{
		{func(e *engine.Engine) error { return workload.LoadTPCH(e, 0.02, 42) }, workload.TPCHQueries},
		{func(e *engine.Engine) error { return workload.LoadInsta(e, 0.02, 42) }, workload.InstaQueries},
	} {
		vecEng, rowEng := loadedPair(t, ds.load)
		vecEng.SetParallelism(4)
		rowEng.SetParallelism(4)
		rowEng.SetVectorized(false)
		for _, q := range ds.queries {
			rsRow, err := rowEng.Query(q.SQL)
			if err != nil {
				t.Fatalf("%s interpreter: %v", q.ID, err)
			}
			rsVec, err := vecEng.Query(q.SQL)
			if err != nil {
				t.Fatalf("%s vectorized: %v", q.ID, err)
			}
			rowsIdentical(t, q.ID, rsRow, rsVec)
		}
		if rowEng.ParallelScans() == 0 {
			t.Fatal("no interpreted query ran on parallel chunk morsels")
		}
	}
}
