package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// workload is one traffic mix the benchmark offers the hub. Every
// input it describes is generated from the run's seed before timing
// starts (see genInputs).
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Definition is the longer description recorded in the report.
	Definition string `json:"definition"`

	// Rate is the open-loop offer rate in alerts per second, offered in
	// bursts of Burst alerts over Tenants uniformly chosen tenants.
	Rate    int `json:"rate_per_s"`
	Burst   int `json:"burst"`
	Tenants int `json:"tenants"`

	// Modes subscribes every tenant with IMThenEmail (otherwise tenants
	// have no delivery profile and deliver through the flat sink).
	Modes bool `json:"modes"`
	// AckFrac is the scripted share of first IMs the recipient acks;
	// GuaranteedFrac the share of tenants on the guaranteed tier;
	// OutboxFrac the share of guaranteed-tier alerts whose email is
	// refused for the whole in-memory attempt budget; LostFrac the
	// share of best-effort alerts refused on every attempt.
	AckFrac        float64       `json:"ack_frac,omitempty"`
	GuaranteedFrac float64       `json:"guaranteed_frac,omitempty"`
	OutboxFrac     float64       `json:"outbox_frac,omitempty"`
	LostFrac       float64       `json:"lost_frac,omitempty"`
	AckTimeout     time.Duration `json:"ack_timeout_ns,omitempty"`
	AckRTT         time.Duration `json:"ack_rtt_ns,omitempty"`

	// Backlog, when positive, makes this a crash-replay workload: a
	// hub whose sink is stalled is offered Backlog alerts, killed, and
	// restarted on the same WAL; the restart is timed until every
	// backlogged alert is confirmed.
	Backlog int `json:"backlog,omitempty"`
}

// workloads are the benchmark's traffic mixes. Each layer likely to be
// optimised is heavy in one workload and light in another.
var workloads = []workload{
	{
		Name: "ingest-flat",
		Why:  "flat tenants and an instant sink, so admission, WAL group commit and fsync, shard queue, route and dispatch carry the cost",
		Definition: "10k alerts/s open loop in bursts of 16 over 10k tenants with no delivery profile; a benchmark-owned sink " +
			"confirms each send at once. A burst spans all 8 WAL lanes, so its ack waits for the slowest lane. 10k/s " +
			"sits well below the hub's knee on a 2-core host: at 20k/s some runs refused alerts for overload.",
		Rate: 10000, Burst: 16, Tenants: 10000,
	},
	{
		Name: "modes-fallback",
		Why:  "IM-then-email tenants with scripted acks, fallbacks, outbox handoffs and losses, so executor, ack table, timewheel and outbox carry the cost",
		Definition: "5k alerts/s open loop in bursts of 16 over 2k IMThenEmail tenants, AckTimeout 20 ms. 80% of first IMs " +
			"are acked through HandleIncoming after a 2 ms round trip, the rest fall back to email. 10% of tenants are " +
			"guaranteed-tier with the outbox on; 2% of their alerts have email refused for the whole in-memory attempt " +
			"budget and succeed on the outbox's first round. 0.5% of best-effort alerts are refused on every attempt and " +
			"must be counted as lost.",
		Rate: 5000, Burst: 16, Tenants: 2000,
		Modes: true, AckFrac: 0.8, GuaranteedFrac: 0.1, OutboxFrac: 0.02, LostFrac: 0.005,
		AckTimeout: 20 * time.Millisecond, AckRTT: 2 * time.Millisecond,
	},
	{
		Name: "crash-replay",
		Why:  "a 200k-alert unprocessed backlog is killed and replayed, so plog open and scan and hub replay carry the cost",
		Definition: "Set-up offers 200k alerts over 10k flat tenants open loop at 40k alerts/s in bursts of 16 to a hub " +
			"whose sink blocks until the crash (QueueDepth holds the backlog), waits for every ack, then calls Kill(). " +
			"The timed restart runs hub.New on the same WAL, AddUser and Start, and ends when every backlogged alert is " +
			"confirmed exactly once. At least five crash cycles per run.",
		Rate: 40000, Burst: 16, Tenants: 10000,
		Backlog: 200000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Definition says what is timed or counted; Moves names the
	// end-to-end metrics and workloads a per-layer metric should move.
	Definition string `json:"definition"`
	Moves      string `json:"moves,omitempty"`
}

// endToEnd are measured with tracing off; every workload reports all.
// They are the costs an operator of the hub pays that this host's CPU
// steal and shared-disk stalls move least. The source's and
// recipient's waits (ack and deliver latency) and the fsync rate are
// printed by every run and reported per layer (loadgen.*,
// plog.fsyncs_per_alert), but not gated: their run-to-run spread here
// is wider than any allowed bound (see perfbench/results.json).
// recovery_s is the restart time crash-replay exists to measure; since
// every workload reports every end-to-end metric, the traffic
// workloads time a restart over the WAL their traffic left. The
// ten-seed spreads the bounds were set against are in results.json;
// setup_s, whose wall time includes the WAL's file creation and
// directory fsyncs, spreads most and gets the largest bound.
var endToEnd = []metricDef{
	{Name: "cpu_us_per_alert", Unit: "us", Better: "lower", Bound: 0.24,
		Definition: "process user+sys CPU over the timed phase divided by alerts offered (crash-replay: the restart's CPU " +
			"divided by alerts replayed); the capacity figure on a shared host"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2,
		Definition: "peak resident memory the hub adds to the process: from hub set-up to the end of traffic (crash-replay: " +
			"over a crash cycle, median over cycles), the peak resident size minus the resident size once the benchmark's " +
			"inputs and records are allocated and freed heap is returned to the OS"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Definition: "hub.New + AddUser for all tenants + Start on a fresh WAL; median of 40 set-ups per run, half before the " +
			"timed phase and half after it, so the figure spans the run's host conditions; each starts with freed heap " +
			"returned to the OS, as in a fresh process"},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25,
		Definition: "after Kill(): restart begins (hub.New on the same WAL) -> every acked but unconfirmed alert confirmed and " +
			"the hub quiescent. Crash-replay: the 200k-alert backlog, median over crash cycles. Traffic workloads: the WAL " +
			"their timed traffic left, with nothing owed, so plog open and scan dominate; median over the restarts after " +
			"the traffic settled. Each restart starts with freed heap returned to the OS, as in a fresh process"},
}

// perLayer come from the traced run. Every workload reports all of
// them; a layer a workload does not exercise reads as a zero count.
var perLayer = []metricDef{
	{Name: "loadgen.ack_p50_ms", Unit: "ms", Better: "lower",
		Definition: "burst due time -> its SubmitBatchAsync ticket resolves (the source holds a durable ack); median over 1 s " +
			"windows of due time of each window's median (crash-replay: its set-up fill). Not gated: too noisy on this host",
		Moves: "the source's wait"},
	{Name: "loadgen.ack_p99_ms", Unit: "ms", Better: "lower",
		Definition: "as loadgen.ack_p50_ms with each window's 99th percentile", Moves: "the source's wait"},
	{Name: "loadgen.deliver_p50_ms", Unit: "ms", Better: "lower",
		Definition: "burst due time -> the benchmark's channel or sink receives the send that confirms delivery (acked IM, " +
			"accepted email, sink); median over 1 s windows. Crash-replay times from the restart, one window per crash",
		Moves: "the recipient's wait"},
	{Name: "loadgen.deliver_p99_ms", Unit: "ms", Better: "lower",
		Definition: "as loadgen.deliver_p50_ms with each window's 99th percentile", Moves: "the recipient's wait"},
	{Name: "loadgen.late_max_ms", Unit: "ms", Better: "lower",
		Definition: "largest delay between a burst's due time and the start of its SubmitBatchAsync call (crash-replay: " +
			"its set-up fill)", Moves: "validity"},
	{Name: "loadgen.offered_per_s", Unit: "1/s", Better: "higher",
		Definition: "alerts offered per second of timed traffic", Moves: "validity"},
	{Name: "hub.submit_call_p50_us", Unit: "us", Better: "lower",
		Definition: "duration of the SubmitBatchAsync call, including blocking on AsyncInFlight", Moves: "loadgen.ack_p50_ms on ingest-flat"},
	{Name: "hub.submit_call_p99_us", Unit: "us", Better: "lower",
		Definition: "as hub.submit_call_p50_us, 99th percentile", Moves: "loadgen.ack_p99_ms on ingest-flat"},
	{Name: "hub.overload_rejects", Unit: "count", Better: "lower",
		Definition: "alerts refused with OverloadError", Moves: "failed count"},
	{Name: "plog.fsyncs_per_alert", Unit: "ratio", Better: "lower",
		Definition: "WAL and outbox fsyncs over the timed phase per alert (crash-replay: the restart's, per alert replayed)",
		Moves:      "cpu_us_per_alert and loadgen.ack_p50_ms on ingest-flat"},
	{Name: "plog.records_per_fsync", Unit: "ratio", Better: "higher",
		Definition: "WAL records (RECV + DONE) per fsync", Moves: "cpu_us_per_alert and loadgen.ack_p50_ms on ingest-flat"},
	{Name: "plog.fsync_p50_us", Unit: "us", Better: "lower",
		Definition: "fsync latency median from Stats().WAL.FsyncLatency, interpolated in its power-of-two bucket", Moves: "loadgen.ack_p99_ms on ingest-flat"},
	{Name: "plog.fsync_p99_us", Unit: "us", Better: "lower",
		Definition: "as plog.fsync_p50_us, 99th percentile", Moves: "loadgen.ack_p99_ms on ingest-flat"},
	{Name: "plog.commit_wait_p50_us", Unit: "us", Better: "lower",
		Definition: "batch-open -> durable median from Stats().WAL.CommitWait, interpolated", Moves: "loadgen.ack_p99_ms on ingest-flat"},
	{Name: "plog.lane_skew", Unit: "ratio", Better: "lower",
		Definition: "max over mean WAL records per lane", Moves: "loadgen.ack_p50_ms on ingest-flat"},
	{Name: "plog.disk_bytes_per_alert", Unit: "B", Better: "lower",
		Definition: "WAL disk footprint (Stats().WAL.DiskBytes) per alert offered, at the end of traffic", Moves: "recovery_s"},
	{Name: "hub.queue_wait_p50_us", Unit: "us", Better: "lower",
		Definition: "admission -> dequeued by the shard loop, Stages().QueueWait median", Moves: "loadgen.deliver_p50_ms on ingest-flat"},
	{Name: "hub.queue_wait_p99_us", Unit: "us", Better: "lower",
		Definition: "as hub.queue_wait_p50_us, 99th percentile", Moves: "loadgen.deliver_p99_ms on ingest-flat"},
	{Name: "hub.route_p50_us", Unit: "us", Better: "lower",
		Definition: "pipeline evaluation on the shard loop, Stages().Route median", Moves: "loadgen.deliver_p50_ms on ingest-flat"},
	{Name: "hub.deliver_stage_p50_us", Unit: "us", Better: "lower",
		Definition: "handoff -> delivery completion, Stages().Deliver median", Moves: "loadgen.deliver_p50_ms on ingest-flat"},
	{Name: "hub.deliver_stage_p99_us", Unit: "us", Better: "lower",
		Definition: "as hub.deliver_stage_p50_us, 99th percentile", Moves: "loadgen.deliver_p99_ms on ingest-flat"},
	{Name: "hub.alerts_per_route_batch", Unit: "ratio", Better: "higher",
		Definition: "alerts routed per RouteHook call (one call per shard-loop routing batch)", Moves: "cpu_us_per_alert on ingest-flat"},
	{Name: "hub.first_send_p50_us", Unit: "us", Better: "lower",
		Definition: "burst due time -> first channel Send for the alert, median", Moves: "loadgen.deliver_p50_ms on ingest-flat and modes-fallback"},
	{Name: "hub.self_p50_us", Unit: "us", Better: "lower",
		Definition: "self time in the hub before the first send: first Send entry minus SubmitBatchAsync return, median " +
			"(crash-replay: from the restart, as hub.first_send_p50_us)", Moves: "loadgen.deliver_p50_ms on ingest-flat"},
	{Name: "hub.peak_queue_depth", Unit: "count", Better: "lower",
		Definition: "largest per-shard queue depth (Stats().Shards PeakDepth)", Moves: "loadgen.deliver_p99_ms"},
	{Name: "hub.peak_inflight", Unit: "count", Better: "lower",
		Definition: "largest per-shard in-flight delivery count (Stats().Shards PeakInFlight)", Moves: "loadgen.deliver_p99_ms"},
	{Name: "core.sends_per_alert", Unit: "ratio", Better: "lower",
		Definition: "channel Send calls per alert offered", Moves: "cpu_us_per_alert on modes-fallback"},
	{Name: "core.attempts_per_alert", Unit: "ratio", Better: "lower",
		Definition: "OnDelivery calls (delivery-mode attempts) per alert offered", Moves: "cpu_us_per_alert on modes-fallback"},
	{Name: "core.fallback_frac", Unit: "ratio", Better: "lower",
		Definition: "share of alerts that reached the email block; the checks fail a run in which the share of all its alerts " +
			"that did differs from the scripted unacked share by more than the unmatched-ack limit", Moves: "loadgen.deliver_p50_ms on modes-fallback"},
	{Name: "core.acks_unmatched", Unit: "count", Better: "lower",
		Definition: "alerts whose scripted IM ack reached HandleIncoming but did not end the hub's wait, so the hub fell back to email " +
			"(the recipient sees both; timestamp dedup removes the duplicate); the checks fail a run in which more than 0.2% of " +
			"scripted acks are unmatched", Moves: "loadgen.deliver_p99_ms on modes-fallback"},
	{Name: "core.first_send_to_confirm_p50_ms", Unit: "ms", Better: "lower",
		Definition: "first channel Send -> successful OnDelivery, median", Moves: "loadgen.deliver_p50_ms on modes-fallback"},
	{Name: "core.first_send_to_confirm_p99_ms", Unit: "ms", Better: "lower",
		Definition: "as core.first_send_to_confirm_p50_ms, 99th percentile", Moves: "loadgen.deliver_p99_ms on modes-fallback"},
	{Name: "core.send_p50_us", Unit: "us", Better: "lower",
		Definition: "self time of the benchmark's channel Send (entry -> return), median; the part of delivery spent outside the program", Moves: "loadgen.deliver_p50_ms"},
	{Name: "outbox.handoffs_per_alert", Unit: "ratio", Better: "lower",
		Definition: "Stats().OutboxHandoffs per alert offered", Moves: "loadgen.deliver_p99_ms and cpu_us_per_alert on modes-fallback"},
	{Name: "outbox.rounds_to_success_mean", Unit: "count", Better: "lower",
		Definition: "mean outbox rounds a redelivered envelope needed, the successful one included (Stats().Outbox.RoundsToSuccess); 0 without handoffs", Moves: "loadgen.deliver_p99_ms on modes-fallback"},
	{Name: "runtime.allocs_per_alert", Unit: "count", Better: "lower",
		Definition: "heap allocations (MemStats.Mallocs) per alert over the traced phase", Moves: "cpu_us_per_alert on all workloads"},
	{Name: "runtime.bytes_per_alert", Unit: "B", Better: "lower",
		Definition: "heap bytes allocated (MemStats.TotalAlloc) per alert over the traced phase", Moves: "cpu_us_per_alert on all workloads"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower",
		Definition: "GC cycles over the traced phase", Moves: "cpu_us_per_alert on all workloads"},
	{Name: "runtime.gc_pause_p99_us", Unit: "us", Better: "lower",
		Definition: "99th percentile stop-the-world pause over the traced phase", Moves: "loadgen.ack_p99_ms on all workloads"},
	{Name: "recovery.kill_s", Unit: "s", Better: "lower",
		Definition: "Kill() -> Stopped() of the crashed hub", Moves: "recovery_s"},
	{Name: "recovery.new_s", Unit: "s", Better: "lower",
		Definition: "hub.New on the crashed WAL (plog open and scan), median over restarts", Moves: "recovery_s"},
	{Name: "recovery.add_users_s", Unit: "s", Better: "lower",
		Definition: "AddUser for every tenant during the restart", Moves: "recovery_s"},
	{Name: "recovery.start_s", Unit: "s", Better: "lower",
		Definition: "Start during the restart (replay of the unprocessed backlog into the shard queues)", Moves: "recovery_s"},
	{Name: "recovery.drain_s", Unit: "s", Better: "lower",
		Definition: "Start return -> last backlogged alert confirmed (traffic workloads: -> the hub reads as quiescent)", Moves: "recovery_s"},
	{Name: "plog.records_replayed", Unit: "count", Better: "lower",
		Definition: "WAL records replayed by the restart (hub counter replayed)", Moves: "recovery_s and cpu_us_per_alert on crash-replay"},
	{Name: "plog.segments_replayed", Unit: "count", Better: "lower",
		Definition: "WAL segments the restart's open had to replay (Stats().WAL.SegmentsReplayed)", Moves: "recovery_s"},
	{Name: "trace.overhead_cpu_us_per_alert", Unit: "us", Better: "lower",
		Definition: "traced minus untraced cpu_us_per_alert, both measured for half the run in the same --trace 1 invocation"},
}

// cpuLayers are the packages a CPU profile sample is attributed to;
// each becomes a cpu_us_per_alert.<layer> per-layer metric.
var cpuLayers = []string{"hub", "plog", "core", "alert", "mab", "runtime.gc", "runtime.sched", "syscall", "loadgen", "other"}

func init() {
	for _, l := range cpuLayers {
		def := "CPU profile samples of the traced phase attributed to " + l + ", per alert offered"
		if l == "other" {
			def += " (every package not listed: outbox, timewheel, metrics, clock, dmode, addr; each is printed on its own)"
		}
		perLayer = append(perLayer, metricDef{
			Name: "cpu_us_per_alert." + l, Unit: "us", Better: "lower",
			Definition: def,
			Moves:      "cpu_us_per_alert on every workload",
		})
	}
	perLayer = append(perLayer, metricDef{
		Name: "cpu_us_per_alert.unattributed", Unit: "us", Better: "lower",
		Definition: "the traced phase's rusage CPU per alert minus every profiled layer's, so that the layers add up to it",
		Moves:      "cpu_us_per_alert on every workload",
	})
}

// writeSpec writes BENCHMARK.json: the contract a benchmark runner
// reads. It carries exactly the keys the contract names; the richer
// description (definitions, layer map, host facts, spreads) is the
// report written by perfbench/prove.py.
func writeSpec(path string, runSeconds int) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// describe returns the full benchmark description for the report.
func describeAll() any {
	return map[string]any{
		"workloads":  workloads,
		"end_to_end": endToEnd,
		"per_layer":  perLayer,
	}
}
