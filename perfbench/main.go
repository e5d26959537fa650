// Command perfbench is the SIMBA hub's benchmark. It drives
// internal/hub the way a client does — open-loop SubmitBatchAsync
// bursts at fixed due times, benchmark-owned delivery channels, IM acks
// through HandleIncoming — checks that every alert arrived exactly
// once and in order, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, from a
// traced phase that follows an untraced one, each half the run (their
// CPU difference is the tracing overhead).
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload ingest-flat -seed 1 -seconds 20 -trace 0 -dir .bench_build/run
//	perfbench -spec BENCHMARK.json
//	perfbench -describe
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

const defaultRunSeconds = 20

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "input seed; equal seeds give equal inputs")
		seconds  = flag.Float64("seconds", defaultRunSeconds, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced phase")
		dir      = flag.String("dir", ".bench_build/run", "directory for the hubs' WAL and outbox")
		spec     = flag.String("spec", "", "write the benchmark contract to this file and exit")
		describe = flag.Bool("describe", false, "print the workload and metric definitions as JSON and exit")
	)
	flag.Parse()
	switch {
	case *spec != "":
		return writeSpec(*spec, defaultRunSeconds)
	case *describe:
		return json.NewEncoder(os.Stdout).Encode(describeAll())
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(*dir)
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *dir)
	if err != nil {
		return err
	}
	res.print(os.Stdout, w, *seed, hostFacts(*dir))
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// result is one invocation's report.
type result struct {
	attempted, failed int
	problems          []string
	metrics           []metricDef // in contract order
	values            map[string]float64
	extra             map[string]float64
	samples           map[string]int
}

// runWorkload produces the end-to-end metrics (traced false) or the
// per-layer metrics (traced true) of one workload.
func runWorkload(w workload, seed int64, seconds float64, traced bool, dir string) (*result, error) {
	res := &result{values: map[string]float64{}, extra: map[string]float64{}, samples: map[string]int{}}
	if !traced {
		setups, err := setupTimes(w, seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m, err := measure(w, seed, seconds, false, dir)
		if err != nil {
			return nil, err
		}
		after, err := setupTimes(w, seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, after...)
		res.take(m)
		res.metrics = endToEnd
		res.values["cpu_us_per_alert"] = m.cpuPerAlert()
		res.values["max_rss_mb"] = m.rssMB
		res.values["setup_s"] = median(setups)
		res.values["recovery_s"] = median(m.recovery)
		// The per-layer figures an untraced phase yields (latency,
		// recovery stages, fsyncs) are printed for the reader.
		for k, v := range m.layer {
			res.extra[k] = v
		}
		res.samples["ack"], res.samples["deliver"] = m.ack.count(), m.deliver.count()
		res.samples["ack.windows"], res.samples["deliver.windows"] = len(m.ack), len(m.deliver)
		res.samples["recovery"], res.samples["setup"] = len(m.recovery), len(setups)
		return res, nil
	}
	// Each phase gets half the run, so a traced run takes no longer than
	// an untraced one.
	base, err := measure(w, seed, seconds/2, false, dir)
	if err != nil {
		return nil, err
	}
	m, err := measure(w, seed, seconds/2, true, dir)
	if err != nil {
		return nil, err
	}
	res.take(base)
	res.take(m)
	res.metrics = perLayer
	res.values = m.layer
	res.values["trace.overhead_cpu_us_per_alert"] = m.cpuPerAlert() - base.cpuPerAlert()
	res.extra["cpu_us_per_alert.traced"] = m.cpuPerAlert()
	res.extra["cpu_us_per_alert.untraced"] = base.cpuPerAlert()
	return res, nil
}

func (r *result) take(m *measurement) {
	r.attempted += m.attempted
	r.failed += m.failed
	r.problems = append(r.problems, m.problems...)
	for k, v := range m.extra {
		r.extra[k] = v
	}
}

// print writes the human-readable report, then the JSON result line.
func (r *result) print(f io.Writer, w workload, seed int64, h host) {
	fmt.Fprintf(f, "workload=%s seed=%d filesystem=%s nproc=%d gomaxprocs=%d go=%s\n",
		w.Name, seed, h.Filesystem, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	for _, k := range sortedKeys(r.samples) {
		fmt.Fprintf(f, "samples %-28s %d\n", k, r.samples[k])
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range r.metrics {
		v := r.values[d.Name]
		out[d.Name] = metric{v, d.Unit}
		fmt.Fprintf(f, "metric  %-36s %14.6f %s\n", d.Name, v, d.Unit)
	}
	for _, k := range sortedKeys(r.extra) {
		fmt.Fprintf(f, "extra   %-36s %14.6f\n", k, r.extra[k])
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "CHECK FAILED:", p)
	}
	fmt.Fprintf(f, "attempted %d  failed %d  correct %v\n", r.attempted, r.failed, len(r.problems) == 0)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, out})
	fmt.Fprintln(f, string(line))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
