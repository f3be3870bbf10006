package engine

import (
	"runtime/debug"
	"sync"

	"verdictdb/internal/faultpoint"
)

// Morsel-parallel execution. A scan's chunk sequence is partitioned into
// contiguous per-worker ranges; each worker runs the vector kernels (or the
// interpreter through a private env: for a chunk whose kernel errors, and
// for every chunk with the kernels off) over its chunks with private group
// or output state, and the partial states
// merge in chunk order. Because morsels are contiguous and merged in order,
// the output group order equals the serial first-seen scan order, so
// parallel execution is deterministic for a fixed parallelism level. Exact
// float aggregates may differ from serial in the last bits (partial sums
// reassociate); approximate sketch aggregates (approx_median's reservoir)
// resample on merge and may differ from serial by up to the sketch's rank
// error.
//
// Only plans whose every expression lowers to kernels take this path;
// impure plans (rand()) and the rest run through the interpreter serially
// so that RNG draws happen in a fixed order — sample scrambles stay
// byte-identical.

const (
	// parallelMinRows is the snapshot size below which scans stay serial;
	// goroutine fan-out costs more than it saves on small tables.
	parallelMinRows = 4096
	// parallelChunkMin bounds how finely a scan is split.
	parallelChunkMin = 2048
)

// scanWorkers returns how many workers a scan of n rows should use (1 =
// serial).
func (e *Engine) scanWorkers(n int) int {
	if n < parallelMinRows {
		return 1
	}
	p := e.Parallelism()
	if byChunk := n / parallelChunkMin; byChunk < p {
		p = byChunk
	}
	if p < 1 {
		return 1
	}
	return p
}

// runChunks splits [0,n) into nw contiguous ranges and runs fn on each
// concurrently. The returned error is the one from the earliest range, so
// error identity matches a serial scan. A panicking worker is recovered
// into an *InternalError (its range's error slot) rather than crossing the
// goroutine boundary: sibling workers finish their morsels and the
// WaitGroup always drains, so a crash in one morsel leaks nothing.
func runChunks(nw, n int, fn func(w, lo, hi int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, nw)
	chunk := (n + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = &InternalError{Panic: r, Stack: debug.Stack()}
				}
			}()
			errs[w] = fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelJoinProbe hands the probe side of a vectorized hash join out as
// chunk morsels: contiguous probe-chunk ranges per worker, each probing the
// shared (read-only) hash table with private kernel buffers, output chunks
// concatenated in probe-chunk order — so join output order is identical to
// a serial probe, the same contract the scan morsels keep. needMatched
// allocates per-worker build-side matched bitmaps (RIGHT/FULL joins),
// OR-merged after the barrier.
func parallelJoinProbe(vj *vecJoin, needMatched bool) ([]*chunk, []bool, error) {
	chunks := vj.probeChunks
	nw := vj.eng.scanWorkers(vj.nProbe)
	if nw > len(chunks) {
		nw = len(chunks)
	}
	if nw <= 1 {
		pc := vj.newProbeCtx(needMatched)
		var out []*chunk
		for _, ch := range chunks {
			if err := vj.qc.pollAbort(); err != nil {
				return nil, nil, err
			}
			if err := faultpoint.Hit(faultpoint.SiteEngineJoinProbe); err != nil {
				return nil, nil, err
			}
			oc, err := vj.probeChunk(pc, ch)
			if err != nil {
				return nil, nil, err
			}
			if oc != nil {
				out = append(out, oc)
			}
		}
		return out, pc.matched, nil
	}
	outs := make([][]*chunk, nw)
	bitmaps := make([][]bool, nw)
	err := runChunks(nw, len(chunks), func(w, lo, hi int) error {
		pc := vj.newProbeCtx(needMatched)
		bitmaps[w] = pc.matched
		for _, ch := range chunks[lo:hi] {
			if err := vj.qc.pollAbort(); err != nil {
				return err
			}
			if err := faultpoint.Hit(faultpoint.SiteEngineJoinProbe); err != nil {
				return err
			}
			oc, err := vj.probeChunk(pc, ch)
			if err != nil {
				return err
			}
			if oc != nil {
				outs[w] = append(outs[w], oc)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]*chunk, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	var matched []bool
	if needMatched {
		matched = make([]bool, vj.nBuild)
		for _, bm := range bitmaps {
			if bm == nil {
				continue
			}
			for i, m := range bm {
				if m {
					matched[i] = true
				}
			}
		}
	}
	vj.eng.parallelScans.Add(1)
	return out, matched, nil
}

// groupAcc is one group's partial state: the representative row plus one
// accumulator per aggregate call.
type groupAcc struct {
	repr []Value
	accs []accumulator
}

// chunkGroups is one worker's hash-aggregation state, with insertion order
// preserved for deterministic output.
type chunkGroups struct {
	m     map[string]*groupAcc
	order []string
}

func newChunkGroups() *chunkGroups { return &chunkGroups{m: map[string]*groupAcc{}} }

// mergeChunkGroups folds per-worker states together in chunk order, which
// reproduces the global first-seen group order of a serial scan.
func mergeChunkGroups(results []*chunkGroups) (*chunkGroups, error) {
	dst := results[0]
	if dst == nil {
		dst = newChunkGroups()
	}
	for _, src := range results[1:] {
		if src == nil {
			continue
		}
		for _, key := range src.order {
			sg := src.m[key]
			dg, ok := dst.m[key]
			if !ok {
				// Ownership transfer: sg was charged (p.groupBytes) when its
				// worker created it; moving it between tables adds nothing.
				dst.m[key] = sg                    //verdict:nocharge ownership transfer of an already-charged group
				dst.order = append(dst.order, key) //verdict:nocharge ownership transfer of an already-charged group
				continue
			}
			for i := range dg.accs {
				if err := dg.accs[i].merge(sg.accs[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	return dst, nil
}
