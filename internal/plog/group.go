package plog

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/metrics"
)

// GroupLog layers group commit over a Log: concurrent appenders stage
// their records in memory, join the open batch, and block until one
// fsync makes the whole batch durable. Under load this cuts fsyncs from
// one per append to one per commit window while preserving the
// pessimistic contract — LogReceived / MarkProcessed do not return
// until the record is on disk, so log-before-ack still holds for every
// caller.
//
// Ordering guarantee (what the hub relies on): appends are assigned to
// batches in the order callers acquire the group lock; batches are
// written and fsynced strictly in that order, each as a single write.
// Therefore if append A returned before append B was invoked, A's line
// precedes B's in the journal, and a crash can lose only a suffix of
// the final in-flight batch — which recovery truncates at the last
// complete line (prefix durability).
//
// Batches are rotation-aware: the underlying segmented log rotates
// *before* a batch that would overflow the active segment, never
// inside it, so one batch (one fsync) always lands in one segment.
type GroupLog struct {
	log  *Log
	opts GroupOptions

	appended atomic.Int64

	batchSizes  *metrics.Histogram // journal lines per commit
	stagedSizes *metrics.Histogram // fresh records per LogReceivedBatch call
	commitWait  *metrics.Histogram // µs from batch open to durable

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*groupBatch // accumulating batches, FIFO
	flushing *groupBatch   // batch currently being fsynced, if any
	closed   bool
	failed   error // sticky: first batch-write failure poisons the log
	done     chan struct{}
	// flushNow (capacity 1) cuts an in-progress commit window short:
	// staging paths signal it when a caller blocks on the backlog or it
	// crosses a force-flush threshold, and Close signals it so shutdown
	// never waits out a window.
	flushNow chan struct{}
	scratch  []byte // staging buffer reused across appends (guarded by mu)
	// freeBufs recycles committed batches' encode buffers back into new
	// batches (guarded by mu): the committer strips a batch's buf after
	// its fsync — waiters only ever read err past done — so steady-state
	// commit windows stop allocating a fresh multi-KB buffer each.
	freeBufs [][]byte
}

// Free-list bounds: keep at most maxFreeBufs buffers, and never retain
// one grown past maxFreeBufBytes by a burst — a transient spike must
// not pin its high-water memory forever.
const (
	maxFreeBufs    = 8
	maxFreeBufByte = 1 << 20
)

// GroupOptions tune the commit policy.
type GroupOptions struct {
	// Window bounds how long records nobody waits on (the Async DONE
	// paths) may linger before their fsync, so they ride along with the
	// next commit someone needs instead of paying their own. It is not
	// a tax on waiters: a record a caller blocks on commits as soon as
	// the fsync in flight, if any, completes. Zero always commits as
	// soon as the previous fsync completes.
	Window time.Duration
	// MaxBatch caps the journal lines per commit. Zero means 1024.
	MaxBatch int
	// CommitMaxRecords force-flushes an in-progress commit window once
	// the staged backlog reaches this many journal lines, so a heavy
	// burst never waits out the timer. Zero means MaxBatch.
	CommitMaxRecords int
	// CommitMaxBytes force-flushes once the staged backlog reaches this
	// many encoded bytes. Zero means 1 MiB.
	CommitMaxBytes int
	// Log configures the underlying segmented journal (segment size,
	// background checkpointing, in-memory sweep).
	Log Options
}

// OpenGroup opens (creating if needed) a group-commit log at path,
// rebuilding in-memory state from the checkpoint + segments exactly as
// Open does.
func OpenGroup(path string, opts GroupOptions) (*GroupLog, error) {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 1024
	}
	if opts.CommitMaxRecords <= 0 {
		opts.CommitMaxRecords = opts.MaxBatch
	}
	if opts.CommitMaxBytes <= 0 {
		opts.CommitMaxBytes = 1 << 20
	}
	l, err := OpenWithOptions(path, opts.Log)
	if err != nil {
		return nil, err
	}
	g := &GroupLog{
		log:         l,
		opts:        opts,
		done:        make(chan struct{}),
		flushNow:    make(chan struct{}, 1),
		batchSizes:  &metrics.Histogram{},
		stagedSizes: &metrics.Histogram{},
		commitWait:  &metrics.Histogram{},
	}
	g.cond = sync.NewCond(&g.mu)
	go g.committer()
	return g, nil
}

type groupBatch struct {
	buf      []byte // encoded journal lines, in staging order
	lines    int64
	openedAt time.Time // when the batch was opened (commit-wait clock)
	waited   bool      // a caller blocks on this batch: commit it unpaced
	err      error
	done     chan struct{}
}

// LogReceived durably records an incoming alert, returning once the
// batch holding it has been fsynced. Duplicate keys are idempotent but
// still wait for any in-flight batch, so a caller acking the duplicate
// cannot outrun the original's durability.
func (g *GroupLog) LogReceived(key string, payload []byte, at time.Time) error {
	if key == "" {
		return errors.New("plog: empty key")
	}
	return g.commit(func(dst []byte) ([]byte, bool, error) {
		return g.log.stageReceived(dst, key, payload, at)
	})
}

// MarkProcessed durably records that the alert has been fully routed,
// returning once the batch holding the DONE record has been fsynced.
func (g *GroupLog) MarkProcessed(key string, at time.Time) error {
	return g.commit(func(dst []byte) ([]byte, bool, error) {
		return g.log.stageProcessed(dst, key, at)
	})
}

// LogReceivedBatch durably records a burst of incoming alerts in one
// shot: one group-lock acquisition, one encode pass through the shared
// staging buffer (a single underlying index-lock round-trip), one
// group-commit join, and one durability wait for the whole burst —
// the per-call fixed costs of LogReceived amortized across the batch.
// Entries land in the journal in slice order. Duplicate keys are
// idempotent no-ops; if every entry is a duplicate the call still
// waits for any in-flight batch, so acking the burst cannot outrun the
// originals' durability. The pessimistic contract is unchanged: when
// LogReceivedBatch returns nil, every entry is on disk.
//
// A burst joins the open batch as a unit, even when that overshoots
// GroupOptions.MaxBatch (the cap then closes the batch to later
// appends); a batch still never spans a segment rotation.
func (g *GroupLog) LogReceivedBatch(entries []BatchEntry) error {
	c, err := g.LogReceivedBatchStart(entries)
	if err != nil {
		return err
	}
	return c.Wait()
}

// Commit is a pending durability ticket from LogReceivedBatchStart:
// the burst is staged into a group-commit batch, and Wait blocks until
// that batch's fsync completes. The zero Commit waits for nothing
// (returned when the burst staged no fresh records and no batch was
// pending).
type Commit struct{ b *groupBatch }

// Wait blocks until the staged records are durable, reporting the
// batch's write error (sticky failures poison the log for later
// appends).
func (c Commit) Wait() error {
	if c.b == nil {
		return nil
	}
	<-c.b.done
	return c.b.err
}

// LogReceivedBatchStart is the staging half of LogReceivedBatch: it
// stages the burst and returns a Commit to wait on instead of blocking,
// so the caller can keep staging later bursts while this one's fsync
// runs (the hub's pipelined ingest); records are NOT durable until
// Wait returns nil.
// All other LogReceivedBatch semantics (ordering, duplicate no-ops,
// duplicate bursts still waiting out in-flight batches) are unchanged.
func (g *GroupLog) LogReceivedBatchStart(entries []BatchEntry) (Commit, error) {
	if len(entries) == 0 {
		return Commit{}, nil
	}
	for i := range entries {
		if entries[i].Key == "" {
			return Commit{}, errors.New("plog: empty key")
		}
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return Commit{}, ErrClosed
	}
	if g.failed != nil {
		err := g.failed
		g.mu.Unlock()
		return Commit{}, err
	}
	buf, staged, err := g.log.stageReceivedBatch(g.scratch[:0], entries)
	g.scratch = buf[:0]
	if err != nil {
		g.mu.Unlock()
		return Commit{}, err
	}
	var b *groupBatch
	if staged > 0 {
		g.stagedSizes.Observe(staged)
		b = g.openBatchLocked()
		b.buf = append(b.buf, buf...)
		b.lines += staged
		g.appended.Add(staged)
		g.noteStagedLocked()
	} else {
		// Every entry was a duplicate: wait for the youngest pending
		// work, if any (mirrors the no-op path in commit).
		switch {
		case len(g.queue) > 0:
			b = g.queue[len(g.queue)-1]
		case g.flushing != nil:
			b = g.flushing
		}
	}
	if b != nil {
		g.waitOnLocked(b)
	}
	g.mu.Unlock()
	return Commit{b: b}, nil
}

// MarkProcessedBatchAsync stages DONE records for a burst of keys into
// the next group commit without waiting for the fsync — the batched
// counterpart of MarkProcessedAsync, costing one group-lock and one
// index-lock round-trip for the whole burst. Per-key staging failures
// (ErrUnknownKey) are reported in the returned slice, which is nil
// when every key staged cleanly and otherwise parallel to keys.
func (g *GroupLog) MarkProcessedBatchAsync(keys []string, at time.Time) []error {
	if len(keys) == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	sticky := g.failed
	if g.closed {
		sticky = ErrClosed
	}
	if sticky != nil {
		errs := make([]error, len(keys))
		for i := range errs {
			errs[i] = sticky
		}
		return errs
	}
	buf, staged, errs := g.log.stageProcessedBatch(g.scratch[:0], keys, at)
	g.scratch = buf[:0]
	if staged > 0 {
		b := g.openBatchLocked()
		b.buf = append(b.buf, buf...)
		b.lines += staged
		g.appended.Add(staged)
		g.noteStagedLocked()
	}
	return errs
}

// MarkProcessedAsync stages the DONE record into the next group commit
// and returns without waiting for the fsync (staging errors, e.g.
// ErrUnknownKey, are still reported). Unlike RECV records — which must
// be durable before the ack — an unflushed DONE is safe to lose: the
// entry replays on restart and downstream timestamp dedup discards the
// duplicate. Shard loops use this so marking does not cost them a full
// commit window per alert. Close still flushes every staged DONE.
func (g *GroupLog) MarkProcessedAsync(key string, at time.Time) error {
	return g.commitNoWait(func(dst []byte) ([]byte, bool, error) {
		return g.log.stageProcessed(dst, key, at)
	})
}

// stageFn stages one record, appending its encoded journal line to dst.
type stageFn func(dst []byte) (out []byte, fresh bool, err error)

// stageLocked runs one staging function against the open batch,
// encoding through g.scratch so no per-append line is allocated. The
// caller holds g.mu. Returns the batch joined (nil when not fresh).
func (g *GroupLog) stageLocked(stage stageFn) (*groupBatch, error) {
	line, fresh, err := stage(g.scratch[:0])
	g.scratch = line[:0]
	if err != nil || !fresh {
		return nil, err
	}
	b := g.openBatchLocked()
	b.buf = append(b.buf, line...)
	b.lines++
	g.appended.Add(1)
	g.noteStagedLocked()
	return b, nil
}

// noteStagedLocked wakes the committer for newly staged records and,
// when the backlog is due (flushDueLocked), cuts any in-progress commit
// window short. Caller holds g.mu.
func (g *GroupLog) noteStagedLocked() {
	g.cond.Signal()
	if g.flushDueLocked() {
		g.cutWindowLocked()
	}
}

// waitOnLocked marks b as waited on by a caller, so it is committed
// without pacing. Caller holds g.mu.
func (g *GroupLog) waitOnLocked(b *groupBatch) {
	b.waited = true
	g.cutWindowLocked()
}

// cutWindowLocked ends an in-progress commit window early. Caller
// holds g.mu.
func (g *GroupLog) cutWindowLocked() {
	select {
	case g.flushNow <- struct{}{}:
	default:
	}
}

// flushDueLocked reports whether the staged backlog already justifies
// an immediate commit: a caller is blocked on it, or it crossed a
// CommitMaxRecords/CommitMaxBytes force-flush threshold. The queue is
// at most a couple of batches deep, so the scan is cheap. Caller holds
// g.mu.
func (g *GroupLog) flushDueLocked() bool {
	var lines, bytes int64
	for _, b := range g.queue {
		if b.waited {
			return true
		}
		lines += b.lines
		bytes += int64(len(b.buf))
	}
	return lines >= int64(g.opts.CommitMaxRecords) || bytes >= int64(g.opts.CommitMaxBytes)
}

// commitNoWait stages one record and joins a batch without waiting for
// durability.
func (g *GroupLog) commitNoWait(stage stageFn) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	if g.failed != nil {
		return g.failed
	}
	_, err := g.stageLocked(stage)
	return err
}

// commit stages one record, joins a batch, and waits for durability.
func (g *GroupLog) commit(stage stageFn) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	if g.failed != nil {
		err := g.failed
		g.mu.Unlock()
		return err
	}
	b, err := g.stageLocked(stage)
	if err != nil {
		g.mu.Unlock()
		return err
	}
	if b == nil {
		// No-op append (duplicate RECV or repeated DONE): the original
		// record is either already durable or in a pending batch; wait
		// for the youngest pending work, if any.
		switch {
		case len(g.queue) > 0:
			b = g.queue[len(g.queue)-1]
		case g.flushing != nil:
			b = g.flushing
		default:
			g.mu.Unlock()
			return nil
		}
	}
	g.waitOnLocked(b)
	g.mu.Unlock()
	<-b.done
	return b.err
}

// openBatchLocked returns the batch new appends should join, starting a
// new one when none is open or the tail is full. Caller holds g.mu.
func (g *GroupLog) openBatchLocked() *groupBatch {
	if n := len(g.queue); n > 0 && g.queue[n-1].lines < int64(g.opts.MaxBatch) {
		return g.queue[n-1]
	}
	b := &groupBatch{done: make(chan struct{}), openedAt: time.Now()}
	if n := len(g.freeBufs); n > 0 {
		b.buf = g.freeBufs[n-1][:0]
		g.freeBufs[n-1] = nil
		g.freeBufs = g.freeBufs[:n-1]
	}
	g.queue = append(g.queue, b)
	return b
}

// committer is the single goroutine that flushes batches in order.
// Each cycle drains as many queued batches as fit under MaxBatch
// cumulative records and writes them as one vectored append — one
// write, one fsync — so a backlog built up during a slow fsync clears
// in a single follow-up sync instead of one per batch. An oversized
// batch (a burst that overshot the cap when it joined) still commits
// alone.
//
// The commit schedule is adaptive rather than a fixed timer. A backlog
// a caller blocks on commits at once: if the committer was parked,
// admission latency is the fsync itself, not the window, and otherwise
// the backlog accumulated while the previous fsync ran (the two-deep
// pipeline: batch N+1 fills under fsync N), so holding it longer
// would only delay an acknowledgement. A backlog nobody waits on —
// DONE records staged by the Async paths — is paced, even when it
// wakes a parked committer: the committer sleeps until a window has
// passed since the previous fsync, so those records ride along with
// the next commit someone needs, and the wait is cut short the moment
// a caller blocks on the backlog, the backlog crosses a force-flush
// threshold (CommitMaxRecords/CommitMaxBytes), or the log closes.
func (g *GroupLog) committer() {
	defer close(g.done)
	var take []*groupBatch
	var vec []byte
	var lastSync time.Time // completion time of the previous fsync
	for {
		g.mu.Lock()
		idle := false
		for len(g.queue) == 0 && !g.closed {
			idle = true // parked: no backlog, no fsync in flight
			g.cond.Wait()
		}
		if len(g.queue) == 0 {
			g.mu.Unlock()
			return // closed and drained
		}
		if idle && !g.closed {
			// Yield the processor once before deciding: appenders that
			// are already runnable (woken together with us, or starved
			// while GOMAXPROCS=1 kept them off the core during the last
			// fsync) get to stage into this batch. At true idle nothing
			// is runnable and the yield costs a few microseconds, so
			// idle admission stays sub-window.
			g.mu.Unlock()
			runtime.Gosched()
			g.mu.Lock()
		}
		if w := g.opts.Window; w > 0 && !g.closed && !g.flushDueLocked() {
			if wait := w - time.Since(lastSync); wait > 0 {
				g.waitWindow(wait)
			}
		}
		take = take[:0]
		var lines int64
		for len(g.queue) > 0 {
			next := g.queue[0]
			if len(take) > 0 && lines+next.lines > int64(g.opts.MaxBatch) {
				break
			}
			take = append(take, next)
			lines += next.lines
			g.queue = g.queue[1:]
		}
		g.flushing = take[len(take)-1]
		g.mu.Unlock()

		buf := take[0].buf
		if len(take) > 1 {
			vec = vec[:0]
			for _, b := range take {
				vec = append(vec, b.buf...)
			}
			buf = vec
		}
		err := g.log.appendBatch(buf, lines)
		g.batchSizes.Observe(lines)
		lastSync = time.Now()
		for _, b := range take {
			g.commitWait.Observe(lastSync.Sub(b.openedAt).Microseconds())
		}

		g.mu.Lock()
		g.flushing = nil
		if err != nil && g.failed == nil {
			g.failed = err
		}
		// Reclaim the written batches' encode buffers: waiters blocked on
		// b.done only read b.err, so the buffers are free the moment the
		// vectored append returns.
		for _, b := range take {
			if c := cap(b.buf); c > 0 && c <= maxFreeBufByte && len(g.freeBufs) < maxFreeBufs {
				g.freeBufs = append(g.freeBufs, b.buf[:0])
			}
			b.buf = nil
		}
		g.mu.Unlock()
		for _, b := range take {
			b.err = err
			close(b.done)
		}
	}
}

// waitWindow parks the committer for up to d, waking early when a
// caller blocks on the backlog, a staging path signals a force-flush
// threshold, or Close fires. The timer is stopped and drained on the
// early-wake path, and a stale token is dropped before parking, so
// neither the timer nor the signal channel leaks state into later
// cycles. Called with g.mu held; returns with it re-held.
func (g *GroupLog) waitWindow(d time.Duration) {
	select {
	// Drop a token left by a backlog an earlier cycle already
	// committed: flushDueLocked just said the current backlog does not
	// justify an immediate flush.
	case <-g.flushNow:
	default:
	}
	g.mu.Unlock()
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-g.flushNow:
		if !t.Stop() {
			<-t.C // the timer fired while we were waking: drain it
		}
	}
	g.mu.Lock()
}

// Has reports whether key is resident (logged, possibly not yet
// durable, and not yet retired by the sweep).
func (g *GroupLog) Has(key string) bool { return g.log.Has(key) }

// IsProcessed reports whether key has been marked processed.
func (g *GroupLog) IsProcessed(key string) bool { return g.log.IsProcessed(key) }

// Unprocessed returns the records received but not yet processed, in
// arrival order — the restart replay set.
func (g *GroupLog) Unprocessed() []Record { return g.log.Unprocessed() }

// Len returns the all-time number of logged alerts.
func (g *GroupLog) Len() int { return g.log.Len() }

// Pending returns the live not-yet-processed record count — the
// journal's current replay backlog. Cheap enough to poll.
func (g *GroupLog) Pending() int { return g.log.Pending() }

// Path returns the journal base path.
func (g *GroupLog) Path() string { return g.log.Path() }

// Syncs returns the number of fsyncs issued since OpenGroup.
func (g *GroupLog) Syncs() int64 { return g.log.Syncs() }

// Appended returns the number of journal lines staged through the
// group-commit path; Appended()/Syncs() is the mean commit batch size.
func (g *GroupLog) Appended() int64 { return g.appended.Load() }

// Stats snapshots the underlying log's segmentation/compaction state
// plus the group-commit batch histograms (lines per fsync, and staged
// ingest-burst sizes from LogReceivedBatch).
func (g *GroupLog) Stats() Stats {
	s := g.log.Stats()
	s.CommitBatches = g.batchSizes.Snapshot()
	s.StagedBatches = g.stagedSizes.Snapshot()
	s.CommitWait = g.commitWait.Snapshot()
	return s
}

// Checkpoint forces a checkpoint + compaction of the underlying log.
func (g *GroupLog) Checkpoint() error { return g.log.Checkpoint() }

// FsyncLatency returns the fsync-latency histogram (microseconds).
func (g *GroupLog) FsyncLatency() metrics.HistogramSnapshot { return g.log.FsyncLatency() }

// BatchSizes returns the group-commit batch-size histogram (journal
// lines per fsync).
func (g *GroupLog) BatchSizes() metrics.HistogramSnapshot { return g.batchSizes.Snapshot() }

// StagedBatchSizes returns the ingest staged-batch histogram (fresh
// records per LogReceivedBatch call).
func (g *GroupLog) StagedBatchSizes() metrics.HistogramSnapshot { return g.stagedSizes.Snapshot() }

// CommitWaitLatency returns the batch-open→durable latency histogram
// (microseconds) — how long staged records actually waited for their
// fsync under the adaptive schedule.
func (g *GroupLog) CommitWaitLatency() metrics.HistogramSnapshot { return g.commitWait.Snapshot() }

// Close flushes every pending batch, waits for the committer to exit,
// and closes the underlying journal. Further appends fail with
// ErrClosed.
func (g *GroupLog) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		<-g.done
		return nil
	}
	g.closed = true
	g.cond.Broadcast()
	g.cutWindowLocked()
	g.mu.Unlock()
	<-g.done
	return g.log.Close()
}
