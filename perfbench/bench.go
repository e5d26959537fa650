package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"simba/internal/hub"
)

// warmup is the traffic offered before the timed phase of a traffic
// workload, on the same schedule, so caches, pools and the WAL's first
// segments are warm when timing starts.
const warmup = time.Second

// measurement is what one timed phase (one pass, or every crash cycle
// of one) produced.
type measurement struct {
	attempted, failed int
	problems          []string

	ack, deliver windowed // ms, one sample per alert
	cpuS         float64  // CPU seconds over the timed phases
	fsyncs       float64  // WAL and outbox fsyncs over the timed phases
	lateMaxMs    float64
	// rssMB is the peak resident memory the hub added above the
	// benchmark's own data (a median over crash cycles).
	rssMB float64
	// unmatchedAcks counts scripted IM acks the hub did not match.
	unmatchedAcks int
	recovery      []float64 // s, one per restart or crash cycle

	// layer holds the per-layer metrics (complete only for traced
	// phases); extra the figures outside the contract, printed only.
	layer, extra map[string]float64
}

func (m *measurement) cpuPerAlert() float64 {
	if m.attempted == 0 {
		return 0
	}
	return m.cpuS / float64(m.attempted) * 1e6
}

func (m *measurement) fsyncsPerAlert() float64 {
	if m.attempted == 0 {
		return 0
	}
	return m.fsyncs / float64(m.attempted)
}

// measure runs one timed phase of w.
func measure(w workload, seed int64, seconds float64, traced bool, root string) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}, extra: map[string]float64{}}
	var err error
	if w.Backlog > 0 {
		err = measureCrash(m, w, seed, seconds, traced, root)
	} else {
		err = measureTraffic(m, w, seed, seconds, traced, root)
	}
	m.layer["loadgen.late_max_ms"] = m.lateMaxMs
	m.layer["loadgen.ack_p50_ms"] = m.ack.medianOf(0.5)
	m.layer["loadgen.ack_p99_ms"] = m.ack.medianOf(0.99)
	m.layer["loadgen.deliver_p50_ms"] = m.deliver.medianOf(0.5)
	m.layer["loadgen.deliver_p99_ms"] = m.deliver.medianOf(0.99)
	m.layer["core.acks_unmatched"] = float64(m.unmatchedAcks)
	m.layer["plog.fsyncs_per_alert"] = m.fsyncsPerAlert()
	m.extra["ack_p99_ms.overall"] = m.ack.overall(0.99)
	m.extra["deliver_p99_ms.overall"] = m.deliver.overall(0.99)
	return m, err
}

// tracer brackets a traced phase with allocator snapshots and a CPU
// profile taken with runtime/pprof.
type tracer struct {
	on   bool
	mem0 *runtime.MemStats
	prof bytes.Buffer
}

func (t *tracer) start() error {
	if !t.on {
		return nil
	}
	t.mem0 = memSnapshot()
	return pprof.StartCPUProfile(&t.prof)
}

// stop ends the traced phase and records runtime and per-package CPU
// figures per alert; m's CPU time and attempted count must already
// cover the phase.
func (t *tracer) stop(m *measurement, alerts int) error {
	if !t.on {
		return nil
	}
	pprof.StopCPUProfile()
	mem1 := memSnapshot()
	per := func(x float64) float64 { return x / float64(alerts) }
	m.layer["runtime.allocs_per_alert"] = per(float64(mem1.Mallocs - t.mem0.Mallocs))
	m.layer["runtime.bytes_per_alert"] = per(float64(mem1.TotalAlloc - t.mem0.TotalAlloc))
	m.layer["runtime.gc_cycles"] = float64(mem1.NumGC - t.mem0.NumGC)
	var pauses []float64
	for gc := t.mem0.NumGC + 1; gc <= mem1.NumGC && gc+256 > mem1.NumGC; gc++ {
		pauses = append(pauses, float64(mem1.PauseNs[(gc+255)%256])/1e3)
	}
	m.layer["runtime.gc_pause_p99_us"] = quantile(pauses, 0.99)
	prof, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	listed := map[string]bool{}
	for _, l := range cpuLayers {
		listed[l] = true
		m.layer["cpu_us_per_alert."+l] = 0
	}
	var total float64
	for layer, s := range prof.attribute() {
		us := s / float64(alerts) * 1e6
		total += us
		if !listed[layer] {
			m.extra["cpu_us_per_alert."+layer] = us
			layer = "other"
		}
		m.layer["cpu_us_per_alert."+layer] += us
	}
	m.extra["cpu_us_per_alert.profiled"] = total
	// What the profile missed (samples it dropped, CPU outside its
	// timer), so that the layers add up to the rusage figure.
	m.layer["cpu_us_per_alert.unattributed"] = m.cpuPerAlert() - total
	return nil
}

// measureTraffic offers w's schedule for the warm-up plus seconds,
// waits until every alert settles, checks the outcome, and then times
// restartReps crash restarts over the WAL the traffic left.
func measureTraffic(m *measurement, w workload, seed int64, seconds float64, traced bool, root string) error {
	warmB := int(warmup.Seconds() * float64(w.Rate) / float64(w.Burst))
	timedB := max(1, int(seconds*float64(w.Rate)/float64(w.Burst)))
	in := genInputs(w, seed, (warmB+timedB)*w.Burst)
	dir, err := freshDir(root, "traffic")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p := newPass(w, in, seed, dir, traced, nil)
	rss0, err := memBaseline(m)
	if err != nil {
		return err
	}
	h, _, err := p.bringUp(nil)
	if err != nil {
		return err
	}
	tr := &tracer{on: traced}
	var cpu0 float64
	var syncs0 int64
	var startErr error
	interval := time.Second * time.Duration(w.Burst) / time.Duration(w.Rate)
	p.offer(h, 0, warmB+timedB, now()+int64(time.Millisecond), interval, func(b int) {
		if b == warmB {
			startErr = tr.start()
			cpu0 = cpuSeconds()
			syncs0 = syncs(h)
		}
	})
	if startErr != nil {
		crash(h)
		return startErr
	}
	if err := p.waitSettled(); err != nil {
		m.problems = append(m.problems, err.Error())
	}
	m.cpuS = cpuSeconds() - cpu0
	m.fsyncs = float64(syncs(h) - syncs0)
	m.rssMB = peakRSS() - rss0
	first, n := warmB*w.Burst, timedB*w.Burst
	m.attempted = n
	if err := tr.stop(m, n); err != nil {
		crash(h)
		return err
	}
	p.latencies(m, warmB, warmB+timedB)
	if traced {
		p.spanMetrics(m, warmB, warmB+timedB)
		hubMetrics(m, h, h, len(in.alerts), p)
	}
	hc := countsOf(h, w.Modes)
	if err := quiesce(h); err != nil {
		m.problems = append(m.problems, err.Error())
	}
	m.layer["recovery.kill_s"] = crash(h)

	// Restarts over the settled WAL: nothing is owed, so any delivery
	// they make is a duplicate the check below counts.
	var stages []stageTimes
	var drains, replayed, segs []float64
	for r := 0; r < restartReps; r++ {
		collectGarbage()
		t0 := time.Now()
		h2, st, err := p.bringUp(nil)
		if err != nil {
			return fmt.Errorf("restart %d: %w", r, err)
		}
		started := time.Now()
		if err := quiesce(h2); err != nil {
			m.problems = append(m.problems, err.Error())
		}
		done := time.Now()
		stages = append(stages, st)
		drains = append(drains, done.Sub(started).Seconds())
		m.recovery = append(m.recovery, done.Sub(t0).Seconds())
		replayed = append(replayed, float64(h2.Counters().Get("replayed")))
		segs = append(segs, float64(h2.Stats().WAL.SegmentsReplayed))
		crash(h2)
	}
	recoveryMetrics(m, stages, drains, replayed, segs)
	// Warm-up alerts are checked too (the hub's counters cover them),
	// but only timed alerts count as attempted or failed.
	out := p.outcomes(0, len(in.alerts))
	v := check(out, hc)
	m.problems = append(m.problems, v.problems...)
	m.unmatchedAcks += v.unmatchedAcks
	for _, o := range out[first:] {
		if isFailed(o) {
			m.failed++
		}
	}
	if replayedAny := sum(replayed); replayedAny > 0 {
		m.problems = append(m.problems, fmt.Sprintf("restarts over settled traffic replayed %.0f records", replayedAny))
	}
	return nil
}

// crashCycles is the least number of crash cycles an untraced
// crash-replay run makes; recovery_s is their median.
const crashCycles = 5

// measureCrash runs crash cycles, at least crashCycles and until
// seconds have passed (one when traced). Each offers the backlog open
// loop to a hub whose sink is stalled (set-up: only the per-layer
// figures time it), kills it, and times the restart until every
// backlogged alert is confirmed.
func measureCrash(m *measurement, w workload, seed int64, seconds float64, traced bool, root string) error {
	nB := w.Backlog / w.Burst
	in := genInputs(w, seed, nB*w.Burst)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var stages []stageTimes
	var kills, drains, replayed, segs, rss []float64
	var p *pass
	more := func(cycle int) bool {
		if traced {
			return cycle == 0
		}
		return cycle < crashCycles || time.Now().Before(deadline)
	}
	for cycle := 0; more(cycle); cycle++ {
		dir, err := freshDir(root, "crash")
		if err != nil {
			return err
		}
		p = newPass(w, in, seed, dir, traced, p)
		rss0, err := memBaseline(m)
		if err != nil {
			return err
		}
		block := make(chan struct{})
		h1, _, err := p.bringUp(block)
		if err != nil {
			return err
		}
		p.offer(h1, 0, nB, now()+int64(time.Millisecond), time.Second*time.Duration(w.Burst)/time.Duration(w.Rate), nil)
		if err := waitResolved(p, nB); err != nil {
			m.problems = append(m.problems, err.Error())
		}
		if traced {
			p.submitMetrics(m, 0, nB)
			hubMetrics(m, h1, nil, len(in.alerts), p)
		}
		killStart := time.Now()
		h1.Kill()
		close(block)
		<-h1.Stopped()
		kills = append(kills, time.Since(killStart).Seconds())
		collectGarbage()

		tr := &tracer{on: traced}
		if err := tr.start(); err != nil {
			return err
		}
		cpu0 := cpuSeconds()
		p.deliverBase = now()
		p.routeCalls.Store(0)
		t0 := time.Now()
		h2, st, err := p.bringUp(nil)
		if err != nil {
			return fmt.Errorf("restart after crash: %w", err)
		}
		started := time.Now()
		if err := p.waitSettled(); err != nil {
			m.problems = append(m.problems, err.Error())
		}
		done := time.Now()
		m.cpuS += cpuSeconds() - cpu0
		rss = append(rss, peakRSS()-rss0)
		m.fsyncs += float64(syncs(h2))
		m.attempted += len(in.alerts)
		if err := tr.stop(m, len(in.alerts)); err != nil {
			crash(h2)
			return err
		}
		m.recovery = append(m.recovery, done.Sub(t0).Seconds())
		stages = append(stages, st)
		drains = append(drains, done.Sub(started).Seconds())
		replayed = append(replayed, float64(h2.Counters().Get("replayed")))
		segs = append(segs, float64(h2.Stats().WAL.SegmentsReplayed))
		p.latencies(m, 0, nB)
		if traced {
			p.spanMetrics(m, 0, nB)
			hubMetrics(m, nil, h2, len(in.alerts), p)
		}
		v := check(p.outcomes(0, len(in.alerts)), countsOf(h2, false))
		m.failed += v.failed
		m.problems = append(m.problems, v.problems...)
		if err := quiesce(h2); err != nil {
			m.problems = append(m.problems, err.Error())
		}
		crash(h2)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	recoveryMetrics(m, stages, drains, replayed, segs)
	m.layer["recovery.kill_s"] = median(kills)
	m.rssMB = median(rss)
	return nil
}

// syncs counts the fsyncs of the hub's WAL lanes and outbox journal.
func syncs(h *hub.Hub) int64 {
	st := h.Stats()
	n := st.Syncs
	if st.Outbox != nil {
		n += st.Outbox.Log.Syncs
	}
	return n
}

// collectGarbage frees what earlier phases left before a timed
// set-up or restart, and returns it to the OS. A hub starts or
// restarts in a fresh process; here it shares one with the hubs before
// it, whose heap must neither be collected on its time nor lend it
// pages already mapped (how many there are depends on where the last
// GC cycle fell, which made set-up times bimodal).
func collectGarbage() { debug.FreeOSMemory() }

// waitResolved waits until the first nB bursts' tickets resolved.
func waitResolved(p *pass, nB int) error {
	deadline := time.Now().Add(settleTimeout)
	for p.resolvedN.Load() < int64(nB) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d tickets resolved within %v", p.resolvedN.Load(), nB, settleTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// latencies adds bursts [fromB, toB)'s ack and deliver samples, in
// windows of latencyWindow of due time. Crash-replay's deliver
// samples, timed from the restart, form one window per cycle.
func (p *pass) latencies(m *measurement, fromB, toB int) {
	perWin := max(1, int(latencyWindow.Seconds()*float64(p.w.Rate))/p.w.Burst)
	ackBase, delBase := len(m.ack), len(m.deliver)
	crashed := p.deliverBase != 0
	for b := fromB; b < toB; b++ {
		bu := &p.bursts[b]
		win := (b - fromB) / perWin
		m.lateMaxMs = max(m.lateMaxMs, float64(bu.start-bu.due)/1e6)
		ack := bu.ack.Load()
		for i := b * p.w.Burst; i < (b+1)*p.w.Burst; i++ {
			r := &p.recs[i]
			if !r.acked.Load() {
				continue
			}
			m.ack.add(ackBase+win, float64(ack-bu.due)/1e6)
			c := r.confirmSend.Load()
			switch {
			case c == 0 || r.confirms.Load() == 0:
			case crashed:
				m.deliver.add(delBase, float64(c-p.deliverBase)/1e6)
			default:
				m.deliver.add(delBase+win, float64(c-bu.due)/1e6)
			}
		}
	}
}

// latencyWindow is the slice of due time whose latency percentiles
// form one sample of the run's median: this host's fsync and
// scheduling stalls come in bursts, and the median over windows keeps
// one burst from setting a run's figure.
const latencyWindow = time.Second

// windowed holds latency samples per window.
type windowed [][]float64

func (w *windowed) add(win int, x float64) {
	for len(*w) <= win {
		*w = append(*w, nil)
	}
	(*w)[win] = append((*w)[win], x)
}

func (w windowed) count() int {
	n := 0
	for _, xs := range w {
		n += len(xs)
	}
	return n
}

// medianOf is the median over windows of each window's q-quantile.
// Windows with under half the samples of the fullest one (a run's
// trailing partial second) are left out.
func (w windowed) medianOf(q float64) float64 {
	most := 0
	for _, xs := range w {
		most = max(most, len(xs))
	}
	var per []float64
	for _, xs := range w {
		if len(xs) > 0 && 2*len(xs) >= most {
			per = append(per, quantile(xs, q))
		}
	}
	return median(per)
}

// overall is the q-quantile of every sample.
func (w windowed) overall(q float64) float64 {
	var all []float64
	for _, xs := range w {
		all = append(all, xs...)
	}
	return quantile(all, q)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// spanMetrics computes the per-layer figures the benchmark's own spans
// give for alerts in bursts [fromB, toB).
func (p *pass) spanMetrics(m *measurement, fromB, toB int) {
	var firstSend, self, sendSelf, toConfirm, incoming, fallbackLate, outboxDeliver []float64
	var sends, attempts, fallbacks float64
	n := float64((toB - fromB) * p.w.Burst)
	for b := fromB; b < toB; b++ {
		bu := &p.bursts[b]
		base, selfBase := bu.due, bu.end
		if p.deliverBase != 0 {
			base, selfBase = p.deliverBase, p.deliverBase
		}
		for i := b * p.w.Burst; i < (b+1)*p.w.Burst; i++ {
			r := &p.spans[i]
			sends += float64(r.sends.Load())
			attempts += float64(r.attempts.Load())
			fs := r.firstSend.Load()
			if fs == 0 {
				continue
			}
			firstSend = append(firstSend, float64(fs-base)/1e3)
			self = append(self, float64(fs-selfBase)/1e3)
			if ret := r.firstSendRet.Load(); ret != 0 {
				sendSelf = append(sendSelf, float64(ret-fs)/1e3)
			}
			if c := r.confirmAt.Load(); c != 0 {
				toConfirm = append(toConfirm, float64(c-fs)/1e6)
			}
			if d := r.incoming.Load(); d != 0 {
				incoming = append(incoming, float64(d)/1e3)
			}
			if e := r.firstEmail.Load(); e != 0 {
				fallbacks++
				if imAt := r.firstIM.Load(); imAt != 0 {
					fallbackLate = append(fallbackLate, float64(e-imAt-int64(p.w.AckTimeout))/1e6)
				}
			}
			if p.in.scripts != nil && p.in.scripts[i].outbox {
				if c, f := r.confirmAt.Load(), r.lastFailAt.Load(); c != 0 && f != 0 {
					outboxDeliver = append(outboxDeliver, float64(c-f)/1e6)
				}
			}
		}
	}
	if p.deliverBase == 0 {
		p.submitMetrics(m, fromB, toB)
	}
	m.layer["hub.first_send_p50_us"] = quantile(firstSend, 0.5)
	m.layer["hub.self_p50_us"] = quantile(self, 0.5)
	m.layer["core.send_p50_us"] = quantile(sendSelf, 0.5)
	m.layer["core.sends_per_alert"] = sends / n
	m.layer["core.attempts_per_alert"] = attempts / n
	m.layer["core.fallback_frac"] = fallbacks / n
	m.layer["core.first_send_to_confirm_p50_ms"] = quantile(toConfirm, 0.5)
	m.layer["core.first_send_to_confirm_p99_ms"] = quantile(toConfirm, 0.99)
	if p.w.Modes {
		m.extra["core.handle_incoming_p50_us"] = quantile(incoming, 0.5)
		m.extra["timewheel.fallback_late_p99_ms"] = quantile(fallbackLate, 0.99)
		m.extra["outbox.deliver_p50_ms"] = quantile(outboxDeliver, 0.5)
	}
}

// submitMetrics records the generator's figures for bursts
// [fromB, toB): its offered rate and SubmitBatchAsync call durations.
func (p *pass) submitMetrics(m *measurement, fromB, toB int) {
	var submit []float64
	for b := fromB; b < toB; b++ {
		bu := &p.bursts[b]
		submit = append(submit, float64(bu.end-bu.start)/1e3)
	}
	first, last := &p.bursts[fromB], &p.bursts[toB-1]
	n := float64((toB - fromB) * p.w.Burst)
	m.layer["loadgen.offered_per_s"] = n / (float64(last.end-first.due) / 1e9)
	m.layer["hub.submit_call_p50_us"] = quantile(submit, 0.5)
	m.layer["hub.submit_call_p99_us"] = quantile(submit, 0.99)
}

// hubMetrics reads the hub's own read-outs: WAL figures from the hub
// that logged the alerts (wal), shard and stage figures from the hub
// that delivered them (del). Either may be nil.
func hubMetrics(m *measurement, wal, del *hub.Hub, alerts int, p *pass) {
	n := float64(alerts)
	if wal != nil {
		st := wal.Stats()
		m.layer["hub.overload_rejects"] = float64(wal.Counters().Get("rejects-overload"))
		m.layer["plog.records_per_fsync"] = st.MeanBatch
		m.layer["plog.fsync_p50_us"] = histQuantile(st.WAL.FsyncLatency, 0.5)
		m.layer["plog.fsync_p99_us"] = histQuantile(st.WAL.FsyncLatency, 0.99)
		m.layer["plog.commit_wait_p50_us"] = histQuantile(st.WAL.CommitWait, 0.5)
		m.layer["plog.disk_bytes_per_alert"] = float64(st.WAL.DiskBytes) / n
		var maxLane, total float64
		for _, l := range st.WALPerLane {
			maxLane = max(maxLane, float64(l.Total))
			total += float64(l.Total)
		}
		if total > 0 {
			m.layer["plog.lane_skew"] = maxLane / (total / float64(len(st.WALPerLane)))
		}
	}
	if del != nil {
		st := del.Stats()
		sg := del.Stages()
		us := func(d time.Duration) float64 { return float64(d) / 1e3 }
		m.layer["hub.queue_wait_p50_us"] = us(sg.QueueWait.P50)
		m.layer["hub.queue_wait_p99_us"] = us(sg.QueueWait.P99)
		m.layer["hub.route_p50_us"] = us(sg.Route.P50)
		m.layer["hub.deliver_stage_p50_us"] = us(sg.Deliver.P50)
		m.layer["hub.deliver_stage_p99_us"] = us(sg.Deliver.P99)
		if calls := p.routeCalls.Load(); calls > 0 {
			m.layer["hub.alerts_per_route_batch"] = float64(del.Counters().Get("routed")) / float64(calls)
		}
		var peakDepth, peakInflight int
		for _, s := range st.Shards {
			peakDepth = max(peakDepth, s.PeakDepth)
			peakInflight = max(peakInflight, s.PeakInFlight)
		}
		m.layer["hub.peak_queue_depth"] = float64(peakDepth)
		m.layer["hub.peak_inflight"] = float64(peakInflight)
		m.layer["outbox.handoffs_per_alert"] = float64(st.OutboxHandoffs) / n
		m.layer["outbox.rounds_to_success_mean"] = 0
		if st.Outbox != nil && st.Outbox.RoundsToSuccess.Count > 0 {
			// The outbox numbers rounds from 0; count the successful one.
			m.layer["outbox.rounds_to_success_mean"] = st.Outbox.RoundsToSuccess.Mean() + 1
		}
	}
}

// recoveryMetrics records the restart stage medians (per-layer
// figures; printed by untraced runs too).
func recoveryMetrics(m *measurement, stages []stageTimes, drains, replayed, segs []float64) {
	var newS, addS, startS []float64
	for _, s := range stages {
		newS = append(newS, s.newS)
		addS = append(addS, s.addS)
		startS = append(startS, s.startS)
	}
	m.layer["recovery.new_s"] = median(newS)
	m.layer["recovery.add_users_s"] = median(addS)
	m.layer["recovery.start_s"] = median(startS)
	m.layer["recovery.drain_s"] = median(drains)
	m.layer["plog.records_replayed"] = median(replayed)
	m.layer["plog.segments_replayed"] = median(segs)
}

// setupTimes times setupReps fresh set-ups of w's hub, in seconds.
func setupTimes(w workload, seed int64, root string) ([]float64, error) {
	in := genInputs(w, seed, 0)
	var out []float64
	for r := 0; r < setupReps; r++ {
		collectGarbage()
		dir, err := freshDir(root, "setup")
		if err != nil {
			return nil, err
		}
		p := newPass(w, in, seed, dir, false, nil)
		h, st, err := p.bringUp(nil)
		if err != nil {
			return nil, err
		}
		out = append(out, st.total())
		crash(h)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}
