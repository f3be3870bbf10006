// Command perfbench is verdictdb's end-to-end benchmark: one closed-loop
// client sends the 33 TPC-H/insta workload queries through verdictdb.Conn
// over data and samples generated from --seed, checks every answer, and
// prints the metrics declared in BENCHMARK.json.
//
// Run it from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload approx --seed 1 --seconds 15 --trace 0
//
// Workloads: approx (Conn.Query over samples), exact (bypass over base
// tables), progressive (Conn.QueryProgressive with a 0.15 target) and
// ingest (append cycles beside approximate reads on a disk-backed engine).
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves untraced
// and traced passes, prints the per-layer metrics from the traced spans,
// and writes the spans to .bench_build/traces/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "approx | exact | progressive | ingest")
	seed := flag.Int64("seed", 1, "workload seed: data, samples and append batches derive from it")
	seconds := flag.Int("seconds", 15, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	cfg := runConfig{workload: *workloadName, seed: *seed, seconds: *seconds, traced: *trace == 1}
	var out *output
	switch cfg.workload {
	case "approx", "exact", "progressive":
		out, err = runQueryWorkload(cfg)
	case "ingest":
		out, err = runIngest(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out.meta["seed"] = cfg.seed
	out.meta["workload"] = cfg.workload
	out.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.meta["tpch_scale"] = tpchScale
	out.meta["insta_scale"] = instaScale
	out.meta["block_rows"] = blockRows
	out.meta["git_revision"] = gitRevision()
	out.meta["client"] = "one closed-loop client, no think time"

	want := spec.EndToEnd
	if cfg.traced {
		want = spec.PerLayer
	}
	res, err := out.result(want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	info, err := json.Marshal(map[string]any{"meta": out.meta, "info": out.info, "metrics": out.values})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(info))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// output is what a workload run measured: every metric value by name,
// run metadata, information-only figures, and failed-check messages.
type output struct {
	values    map[string]float64
	meta      map[string]any
	info      map[string]any
	attempted int
	failed    int
	errs      []string
}

func newOutput() *output {
	return &output{values: map[string]float64{}, meta: map[string]any{}, info: map[string]any{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects the declared metrics; a declared metric the run did not
// measure is an error in the benchmark, not a zero.
func (o *output) result(want []metricSpec) (*result, error) {
	r := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, m := range want {
		v, ok := o.values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics declared in BENCHMARK.json but not measured: %v", missing)
	}
	return r, nil
}

// gitRevision reads the VCS stamp the go command embeds when building
// inside a git checkout; "unknown" elsewhere.
func gitRevision() string {
	rev, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}
