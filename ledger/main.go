// Command ledger is the repository's performance benchmark. It builds on
// the public acq and engine packages and the cmd/acqd and cmd/acqrouter
// binaries, and never on internal packages, so evaluator rewrites can be
// judged against an unchanged benchmark.
//
// One run serves one workload from real server processes, drives it from
// an open-loop generator, checks the answers, and prints its metrics as the
// last line of standard output:
//
//	bash ledger/run.sh --workload read-distinct --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (latency, set-up time,
// server CPU per operation, memory). With --trace 1 it also replays part of the workload's request
// stream one request at a time through each layer's entry point, recording
// spans, walks the capacity ladder, and prints the per-layer metrics. The
// workloads, their rates, latency limits and ladders, and the layer map are
// in ledger/workloads.json; see README.md there for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	root := flag.String("root", ".", "repository root (the checkout being measured)")
	name := flag.String("workload", "", "workload name from ledger/workloads.json")
	seed := flag.Int64("seed", 1, "workload seed: queries, write batches and probes derive from it")
	seconds := flag.Float64("seconds", 15, "length of the measured latency window")
	trace := flag.Int("trace", 0, "1: also run the traced per-layer replay and print per-layer metrics")
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("ledger: ")

	cfg, err := loadConfig(filepath.Join(*root, "ledger", "workloads.json"))
	if err != nil {
		log.Fatal(err)
	}
	w, ok := cfg.Workloads[*name]
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	build := filepath.Join(*root, ".bench_build")
	r := &run{
		cfg: cfg, name: *name, w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin:    filepath.Join(build, "bin"),
		inputs: filepath.Join(build, "inputs"),
		dir:    filepath.Join(build, "run", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
		epoch:  time.Now(),
		nproc:  runtime.NumCPU(),
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
	}
	for _, d := range []string{r.inputs, r.dir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	r.ps = newProcs(r.dir)
	r.tr.epoch = r.epoch

	// Stop every server on an interrupt, so no process outlives the run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		r.ps.killAll()
		os.Exit(1)
	}()

	err = r.execute()
	r.ps.killAll()
	if err != nil {
		log.Printf("run failed: %v", err)
		os.Exit(1)
	}
	os.RemoveAll(r.dir)
	if err := r.report(os.Stdout, filepath.Join(build, "results")); err != nil {
		log.Fatal(err)
	}
	if len(r.checkFailures) > 0 {
		os.Exit(1)
	}
}

// unitOf is the unit every metric is printed with, by name.
func unitOf(name string) string {
	switch name {
	case "capacity_qps":
		return "req/s"
	case "server_rss_mb":
		return "MB"
	case "lru.hit_ratio", "errors.failed_ratio":
		return "fraction"
	case "storage.bytes_written_per_user_byte":
		return "ratio"
	case "trace.overhead_pct":
		return "%"
	case "eval.result_json_bytes", "engine.response_bytes_mean":
		return "bytes"
	case "server_cpu_ms_per_op":
		return "ms"
	}
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "ms_mean"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "bytes"
	}
	return "count"
}

// report prints the environment and the full result as one line each, then
// the contract line, and keeps a copy of all three under results/.
func (r *run) report(out *os.File, resultsDir string) error {
	metrics := r.e2e
	if r.trace {
		metrics = r.layer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mv := make(map[string]val, len(metrics))
	for _, n := range names {
		mv[n] = val{metrics[n], unitOf(n)}
	}
	for _, n := range names {
		if v := metrics[n]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v: too many failed operations or no samples", n, v)
		}
	}
	detail, err := json.Marshal(finite(map[string]any{"env": r.env(), "details": r.details, "end_to_end": r.e2e, "per_layer": r.layer, "check_failures": r.checkFailures}))
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.checkFailures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   mv,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d", r.name, r.seed, map[bool]int{false: 0, true: 1}[r.trace]))
	if err := os.WriteFile(base+".json", append(append(detail, '\n'), append(line, '\n')...), 0o644); err != nil {
		return err
	}
	if r.trace {
		spans, err := json.Marshal(r.tr.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "%s\n%s\n", detail, line)
	return nil
}

// finite round-trips v through JSON with every non-finite float (a
// failure-dominated tail, an empty sample) written as a string, so the
// details record can always be encoded.
func finite(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Sprint(x)
		}
		return x
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = finite(e)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = finite(e)
		}
		return out
	case map[string]float64:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = finite(e)
		}
		return out
	}
	// Structs and other values: normalise through JSON first.
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("unencodable %T", v)
	}
	var g any
	if json.Unmarshal(b, &g) != nil {
		return string(b)
	}
	return g
}
