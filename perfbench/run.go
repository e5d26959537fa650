package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"simba/internal/addr"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/hub"
	"simba/internal/im"
	"simba/internal/mab"
)

// Hub settings every workload shares: eight shards, one WAL lane per
// shard (the hub's default lane count), a 2 ms commit window.
const (
	shards       = 8
	commitWindow = 2 * time.Millisecond
	// restartReps is how many timed restarts a traffic workload makes
	// after its traffic settles; setupReps how many fresh set-ups every
	// run times for setup_s before its timed phase, and again after it.
	restartReps = 21
	setupReps   = 20
	// settleTimeout bounds the wait for every offered alert to settle.
	settleTimeout = 60 * time.Second
)

var errRefused = errors.New("recipient refused the email")

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

// pass is one hub's life under one slice of inputs: the per-alert
// records, the burst schedule, and the counters the hooks feed.
type pass struct {
	w      workload
	in     *inputs
	seed   int64
	dir    string
	traced bool

	recs   []rec
	spans  []spans // traced passes only
	bursts []burst
	cbs    []func([]error)

	// deliverBase, when set, replaces due times as the start of deliver
	// latency (crash-replay times delivery from the restart).
	deliverBase int64

	target     int64 // alerts that must settle
	settledN   atomic.Int64
	settledAll chan struct{}
	resolvedN  atomic.Int64 // bursts whose ticket resolved
	confirmSeq atomic.Int64
	imSeq      atomic.Uint64
	routeCalls atomic.Int64

	h atomic.Pointer[hub.Hub] // the hub HandleIncoming acks go to
}

// burst is one SubmitBatchAsync call of the schedule.
type burst struct {
	due, start, end int64
	ack             atomic.Int64
}

// newPass prepares a pass over in. prev, when non-nil, is an earlier
// pass over the same inputs whose record storage is cleared and reused,
// so repeated passes allocate none.
func newPass(w workload, in *inputs, seed int64, dir string, traced bool, prev *pass) *pass {
	n := len(in.alerts)
	p := &pass{
		w: w, in: in, seed: seed, dir: dir, traced: traced,
		cbs:        make([]func([]error), n/w.Burst),
		target:     int64(n),
		settledAll: make(chan struct{}),
	}
	if prev != nil && len(prev.recs) == n && prev.traced == traced {
		p.recs, p.spans, p.bursts = prev.recs, prev.spans, prev.bursts
		clear(p.recs)
		clear(p.spans)
		clear(p.bursts)
	} else {
		p.recs = make([]rec, n)
		p.bursts = make([]burst, n/w.Burst)
		if traced {
			p.spans = make([]spans, n)
		}
	}
	for b := range p.cbs {
		p.cbs[b] = func(errs []error) { p.resolved(b, errs) }
	}
	return p
}

func (p *pass) settle(i int) {
	if p.recs[i].settled.CompareAndSwap(false, true) && p.settledN.Add(1) == p.target {
		close(p.settledAll)
	}
}

// resolved is the ticket callback of burst b.
func (p *pass) resolved(b int, errs []error) {
	p.bursts[b].ack.Store(now())
	base := b * p.w.Burst
	for k, err := range errs {
		r := &p.recs[base+k]
		if err != nil {
			r.refused.Store(true)
			p.settle(base + k)
			continue
		}
		r.acked.Store(true)
	}
	p.resolvedN.Add(1)
}

// noteSend records a channel Send's entry for alert i, and returns
// its spans (nil when untraced).
func (p *pass) noteSend(i int, t int64) *spans {
	if !p.traced {
		return nil
	}
	sp := &p.spans[i]
	if sp.sends.Add(1) == 1 {
		sp.firstSend.Store(t)
	}
	return sp
}

func (p *pass) noteSendReturn(sp *spans) {
	if sp != nil && sp.firstSendRet.Load() == 0 {
		sp.firstSendRet.Store(now())
	}
}

// confirmingSend records the send that confirms delivery.
func (p *pass) confirmingSend(r *rec, t int64) {
	r.confirmSends.Add(1)
	r.confirmSend.Store(t)
}

// channels builds the benchmark-owned delivery substrate: a sink that
// confirms at once (or blocks until block closes and then fails, for
// the hub that is about to crash), and the scripted IM and email
// recipients of the modes workload.
func (p *pass) channels(block <-chan struct{}) *core.Channels {
	chs := core.NewChannels()
	if block != nil {
		return chs.Register(addr.TypeSink, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			<-block
			return core.SendResult{}, errors.New("hub crashed")
		}))
	}
	chs.Register(addr.TypeSink, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
		t := now()
		i, err := alertIndex(req.Alert.ID)
		if err != nil {
			return core.SendResult{}, err
		}
		sp := p.noteSend(i, t)
		p.confirmingSend(&p.recs[i], t)
		p.noteSendReturn(sp)
		return core.SendResult{Confirmed: true}, nil
	}))
	if !p.w.Modes {
		return chs
	}
	chs.Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
		t := now()
		i, err := alertIndex(req.Alert.ID)
		if err != nil {
			return core.SendResult{}, err
		}
		r := &p.recs[i]
		sp := p.noteSend(i, t)
		seq := p.imSeq.Add(1)
		if r.imSends.Add(1) == 1 {
			if sp != nil {
				sp.firstIM.Store(t)
			}
			if p.in.scripts[i].imAck {
				p.confirmingSend(r, t)
				handle := req.To
				time.AfterFunc(p.w.AckRTT, func() { p.ack(sp, handle, seq) })
			}
		}
		p.noteSendReturn(sp)
		return core.SendResult{Seq: seq}, nil
	}))
	chs.Register(addr.TypeEmail, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
		t := now()
		i, err := alertIndex(req.Alert.ID)
		if err != nil {
			return core.SendResult{}, err
		}
		r := &p.recs[i]
		sp := p.noteSend(i, t)
		n := r.emailSends.Add(1)
		if n == 1 && sp != nil {
			sp.firstEmail.Store(t)
		}
		defer p.noteSendReturn(sp)
		if refuse := p.in.scripts[i].refuse; refuse == refuseAll || n <= refuse {
			return core.SendResult{}, errRefused
		}
		p.confirmingSend(r, t)
		return core.SendResult{Confirmed: true}, nil
	}))
	return chs
}

// ack is the recipient acknowledging an IM through HandleIncoming.
func (p *pass) ack(sp *spans, handle string, seq uint64) {
	t := now()
	p.h.Load().HandleIncoming(im.Message{From: handle, Text: core.AckText(seq)})
	if sp != nil {
		sp.incoming.Store(now() - t)
	}
}

// onDelivery observes every delivery-mode attempt.
func (p *pass) onDelivery(_ string, rep *core.Report, err error) {
	t := now()
	i, kerr := keyIndex(rep.AlertKey)
	if kerr != nil {
		return
	}
	r := &p.recs[i]
	var sp *spans
	if p.traced {
		sp = &p.spans[i]
		sp.attempts.Add(1)
	}
	if err != nil {
		if sp != nil {
			sp.lastFailAt.Store(t)
		}
		if r.failedAttempts.Add(1) >= int32(hub.DefaultDeliveryMaxAttempts) && p.in.scripts != nil && p.in.scripts[i].lost {
			p.settle(i)
		}
		return
	}
	if r.confirms.Add(1) == 1 {
		if sp != nil {
			sp.confirmAt.Store(t)
		}
		r.seq.Store(p.confirmSeq.Add(1))
		switch rep.DeliveredType() {
		case addr.TypeIM:
			r.via.Store(viaIM)
		case addr.TypeEmail:
			r.via.Store(viaEmail)
		case addr.TypeSink:
			r.via.Store(viaSink)
		}
	}
	p.settle(i)
}

// hubConfig is the hub configuration of one workload. block, when
// non-nil, stalls the sink until the crash.
func (p *pass) hubConfig(block <-chan struct{}) hub.Config {
	cfg := hub.Config{
		Clock:        clock.NewReal(),
		Channels:     p.channels(block),
		WALPath:      filepath.Join(p.dir, "hub.wal"),
		Shards:       shards,
		CommitWindow: commitWindow,
		AckTimeout:   p.w.AckTimeout,
		RNG:          dist.NewRNG(p.seed),
	}
	if block == nil {
		cfg.OnDelivery = p.onDelivery
	}
	if p.w.Modes {
		cfg.OutboxPath = filepath.Join(p.dir, "hub.outbox")
	}
	if p.w.Backlog > 0 {
		// Hold the whole backlog: shards see it unevenly, so leave twice
		// the even share.
		cfg.QueueDepth = 2 * p.w.Backlog / shards
	}
	if p.traced {
		cfg.RouteHook = func(int, <-chan struct{}) { p.routeCalls.Add(1) }
	}
	return cfg
}

// stageTimes are the parts of one hub set-up.
type stageTimes struct{ newS, addS, startS float64 }

func (s stageTimes) total() float64 { return s.newS + s.addS + s.startS }

// bringUp runs hub.New + AddUser for every tenant + Start.
func (p *pass) bringUp(block <-chan struct{}) (*hub.Hub, stageTimes, error) {
	var st stageTimes
	t0 := time.Now()
	h, err := hub.New(p.hubConfig(block))
	if err != nil {
		return nil, st, err
	}
	if block == nil {
		p.h.Store(h)
	}
	t1 := time.Now()
	if err := addUsers(h, p.w, p.in); err != nil {
		h.Kill()
		<-h.Stopped()
		return nil, st, err
	}
	t2 := time.Now()
	if err := h.Start(); err != nil {
		h.Kill()
		<-h.Stopped()
		return nil, st, err
	}
	t3 := time.Now()
	st = stageTimes{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()}
	return h, st, nil
}

// addUsers registers every tenant: a pipeline that accepts the
// generated alerts and, on modes workloads, an IMThenEmail profile
// (block timeout from Config.AckTimeout) and the tenant's tier.
func addUsers(h *hub.Hub, w workload, in *inputs) error {
	for i, name := range in.tenants {
		b, err := h.AddUser(name)
		if err != nil {
			return err
		}
		b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
		b.Pipeline().Aggregator.Map("stocks", "Investment")
		if !w.Modes {
			continue
		}
		if in.guaranteed[i] {
			if err := b.SetTier(core.TierGuaranteed); err != nil {
				return err
			}
		}
		prof, err := core.NewProfile(name)
		if err != nil {
			return err
		}
		for _, a := range []addr.Address{
			{Type: addr.TypeIM, Name: "Pager IM", Target: name + "@im.sim", Enabled: true},
			{Type: addr.TypeEmail, Name: "Work email", Target: name + "@mail.sim", Enabled: true},
		} {
			if err := prof.Addresses().Register(a); err != nil {
				return err
			}
		}
		if err := prof.DefineMode(dmode.IMThenEmail("Pager IM", "Work email", 0)); err != nil {
			return err
		}
		b.SetProfile(prof)
		if err := b.Subscribe("Investment", "IMThenEmail"); err != nil {
			return err
		}
	}
	return nil
}

// offer submits bursts [from, to) open loop: burst from is due at
// start, each next one interval later. A late generator submits
// overdue bursts back to back; latency is timed from due times, so
// the lateness counts against the hub.
func (p *pass) offer(h *hub.Hub, from, to int, start int64, interval time.Duration, onBurst func(b int)) {
	for b := from; b < to; b++ {
		due := start + int64(b-from)*int64(interval)
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if onBurst != nil {
			onBurst(b)
		}
		bu := &p.bursts[b]
		bu.due = due
		bu.start = now()
		h.SubmitBatchAsync(p.in.subs[b*p.w.Burst:(b+1)*p.w.Burst], p.cbs[b])
		bu.end = now()
	}
}

// waitSettled waits until every alert of the pass has settled.
func (p *pass) waitSettled() error {
	select {
	case <-p.settledAll:
		return nil
	case <-time.After(settleTimeout):
		return fmt.Errorf("%d of %d alerts settled within %v", p.settledN.Load(), p.target, settleTimeout)
	}
}

// quiesce waits until every shard is empty (each DONE record staged)
// and the outbox holds nothing, so a crash now leaves nothing owed.
func quiesce(h *hub.Hub) error {
	deadline := time.Now().Add(settleTimeout)
	for time.Now().Before(deadline) {
		st := h.Stats()
		busy := st.Outbox != nil && st.Outbox.Pending > 0
		for _, s := range st.Shards {
			busy = busy || s.Depth > 0
		}
		if !busy {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("hub did not quiesce")
}

// crash kills the hub and waits until it has stopped.
func crash(h *hub.Hub) float64 {
	t0 := time.Now()
	h.Kill()
	<-h.Stopped()
	return time.Since(t0).Seconds()
}

// outcomes converts the settled records of alerts [from, to).
func (p *pass) outcomes(from, to int) []outcome {
	out := make([]outcome, 0, to-from)
	for i := from; i < to; i++ {
		r := &p.recs[i]
		o := outcome{
			user:         p.in.user[i],
			acked:        r.acked.Load(),
			refused:      r.refused.Load(),
			confirms:     int(r.confirms.Load()),
			confirmSends: int(r.confirmSends.Load()),
			seq:          r.seq.Load(),
			via:          r.via.Load(),
			emailed:      r.emailSends.Load() > 0,
		}
		if p.in.scripts != nil {
			o.sc = p.in.scripts[i]
		}
		out = append(out, o)
	}
	return out
}

// countsOf reads the hub's delivered and lost counters.
func countsOf(h *hub.Hub, modes bool) hubCounts {
	st := h.Stats()
	hc := hubCounts{checkTier: modes}
	for _, t := range st.Tiers {
		hc.delivered += t.Delivered
	}
	hc.byVia[viaIM] = st.DeliveredByChannel[addr.TypeIM]
	hc.byVia[viaEmail] = st.DeliveredByChannel[addr.TypeEmail]
	hc.byVia[viaSink] = st.DeliveredByChannel[addr.TypeSink]
	hc.lostBestEffort = st.Tiers[core.TierBestEffort].Lost
	hc.lostGuaranteed = st.Tiers[core.TierGuaranteed].Lost
	return hc
}

// freshDir makes an empty directory for one hub's WAL and outbox.
func freshDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscallRusage
	getrusage(&ru)
	return ru.cpu
}

// memSnapshot reads the allocator counters (never inside an untraced
// timed phase: the read stops the world).
func memSnapshot() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}
