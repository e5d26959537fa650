// Package plog implements the pessimistic logging MyAlertBuddy uses to
// avoid losing alerts across crashes. Per the paper: upon receiving an
// IM alert, the buddy saves a copy to a log file *before* sending the
// acknowledgement (the sender will not resend once acked); after
// processing, the entry is marked "Processed"; on every restart the
// log is scanned for unprocessed entries, which are replayed before
// new alerts are accepted. Duplicate deliveries that arise when the
// buddy fails between routing and marking are detected downstream via
// alert timestamps.
//
// The on-disk format is an append-only journal of length-prefixed
// binary frames (RECV carries key+payload, DONE carries key), each
// protected by a CRC32C trailer — see binary.go for the byte layout.
// Every append is fsynced — that is what makes the logging pessimistic
// — and a torn final frame (crash mid-write) is detected by checksum
// and truncated on recovery.
//
// The journal is *segmented* so that disk, memory, and restart time
// amortize to O(unprocessed) instead of O(all-time): appends go to a
// fixed-size active segment (<base>.NNNNNNNN.seg) that rotates at
// Options.SegmentBytes; a background compactor periodically writes a
// checkpoint file (<base>.ckpt.NNNNNNNN) holding only the unprocessed
// records plus an all-time total, then deletes every segment the
// checkpoint covers; processed records are retired from memory by a
// periodic sweep. Recovery loads the newest valid checkpoint and
// replays only the segments after its watermark, preserving the
// per-segment prefix-durability and torn-tail truncation guarantees.
// See segment.go for the segment lifecycle and checkpoint.go for the
// checkpoint format and compactor.
package plog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/metrics"
)

// Log errors.
var (
	// ErrUnknownKey indicates MarkProcessed was called for a key that
	// was never logged (or was already retired from memory by the
	// sweep after being processed).
	ErrUnknownKey = errors.New("plog: unknown key")
	// ErrClosed indicates use after Close.
	ErrClosed = errors.New("plog: log closed")
)

// Defaults for Options.
const (
	// DefaultSegmentBytes caps the active segment before rotation.
	DefaultSegmentBytes = 4 << 20
	// DefaultSweepEvery is the least number of processed (tombstoned)
	// records that must accumulate in memory before a sweep retires
	// them.
	DefaultSweepEvery = 4096
)

// Options tune the segmented journal. The zero value gives a 4 MiB
// segment size, in-memory sweeping of at least 4096 processed records
// at a time, and no background checkpointing (call Checkpoint
// explicitly, or set CheckpointEvery).
type Options struct {
	// SegmentBytes caps the active segment: an append that would push
	// it past this size rotates to a fresh segment first (one append
	// or group-commit batch never spans a rotation). Zero means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// CheckpointEvery triggers a background checkpoint + compaction
	// after this many journal records have been appended since the
	// last checkpoint. Zero disables the background compactor
	// (Checkpoint can still be called explicitly).
	CheckpointEvery int64
	// SweepEvery bounds how many processed records stay resident: once
	// at least this many tombstones accumulate and they make up at
	// least half of the resident records, a sweep drops them from the
	// in-memory index (Has/IsProcessed then report false for them —
	// safe, because a re-received retired alert merely replays into
	// the downstream timestamp dedup). Zero means DefaultSweepEvery;
	// negative disables sweeping (the pre-segmentation behavior).
	SweepEvery int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SweepEvery == 0 {
		o.SweepEvery = DefaultSweepEvery
	}
	return o
}

// Record is one logged alert.
type Record struct {
	Key        string
	Payload    []byte
	ReceivedAt time.Time
	Processed  bool
}

// Stats is a point-in-time snapshot of the log's segmentation,
// compaction, and recovery state.
type Stats struct {
	// Total is the all-time number of logged alerts, including records
	// retired from memory and compacted off disk (carried forward in
	// each checkpoint header).
	Total int64
	// Live is the number of records currently resident in memory;
	// Unprocessed of those are awaiting replay/processing.
	Live        int
	Unprocessed int
	// Retired counts processed records the sweep dropped from memory.
	Retired int64
	// CorruptRecords counts journal records that failed validation
	// during replay — CRC32C mismatches and malformed frames (clean
	// torn tails are truncated, not counted).
	CorruptRecords int64
	// Segments is the number of on-disk segments (including the active
	// one); ActiveSegment is the active segment's sequence number.
	Segments      int
	ActiveSegment uint64
	// SegmentsCreated counts rotations since Open (plus the initial
	// segment if it was created rather than reopened).
	SegmentsCreated int64
	// SegmentsReplayed is how many segments Open had to replay — the
	// bounded-recovery figure of merit.
	SegmentsReplayed int
	// CheckpointGen is the generation of the newest durable
	// checkpoint (0 = none); Checkpoints counts checkpoints written
	// since Open; CompactedBytes counts segment bytes deleted.
	CheckpointGen  uint64
	Checkpoints    int64
	CompactedBytes int64
	// DiskBytes is the current on-disk footprint (segments plus the
	// newest checkpoint).
	DiskBytes int64
	// Syncs counts fsyncs issued since Open; FsyncLatency is their
	// latency histogram (microseconds).
	Syncs        int64
	FsyncLatency metrics.HistogramSnapshot
	// CommitBatches and StagedBatches summarize the group-commit layer
	// (populated by GroupLog.Stats, zero for a bare Log): journal
	// records per fsync, and fresh records per LogReceivedBatch ingest
	// burst.
	CommitBatches metrics.HistogramSnapshot
	StagedBatches metrics.HistogramSnapshot
	// CommitWait is the batch-open→durable latency histogram
	// (microseconds) — how long staged records waited for their fsync
	// under the adaptive commit schedule (populated by GroupLog.Stats,
	// zero for a bare Log).
	CommitWait metrics.HistogramSnapshot
}

// Log is a pessimistic, segmented write-ahead log. It is safe for
// concurrent use: concurrent Append callers (LogReceived /
// MarkProcessed) are serialized under one mutex, so journal lines are
// written in the order callers acquire it, each line is fsynced before
// its call returns, and a call that returned before another began
// always precedes it in the journal (the prefix-durability ordering
// the group-commit layer builds on — see GroupLog).
type Log struct {
	mu     sync.Mutex
	base   string // base path; segments and checkpoints live alongside
	dirf   *os.File
	f      *os.File // active segment
	opts   Options
	closed bool

	activeSeq  uint64 // sequence number of the active segment
	activeSize int64
	oldestSeq  uint64 // lowest on-disk segment sequence
	liveSegs   int

	syncs    atomic.Int64
	fsyncLat *metrics.Histogram // microseconds per fsync

	// index maps key → position in order; order preserves arrival.
	index map[string]int
	order []Record
	// total is the all-time logged-alert count; retired counts
	// processed records swept from memory; processedLive counts
	// tombstones still resident (the sweep trigger); sweeps counts
	// sweeps run.
	total         int64
	retired       int64
	processedLive int
	sweeps        int
	corrupt       int64

	// Checkpoint state: gen of the newest durable checkpoint,
	// watermark (segments <= ckptSeq are covered and deletable), and
	// records appended since (the compaction trigger).
	ckptGen   uint64
	ckptSeq   uint64
	sinceCkpt int64

	segsCreated    atomic.Int64
	ckptsWritten   atomic.Int64
	compactedBytes atomic.Int64
	replayedSegs   int

	encBuf []byte // reusable per-append encode buffer (guarded by mu)

	// Background compactor plumbing (nil when CheckpointEvery == 0).
	ckptMu      sync.Mutex // serializes Checkpoint calls
	compactReq  chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
}

// Open opens (creating if needed) the log at path with default Options
// and rebuilds its in-memory state from the newest checkpoint plus the
// segments after it.
func Open(path string) (*Log, error) {
	return OpenWithOptions(path, Options{})
}

// OpenWithOptions is Open with explicit segmentation/compaction
// tuning.
func OpenWithOptions(path string, opts Options) (*Log, error) {
	l := &Log{
		base:     path,
		opts:     opts.withDefaults(),
		index:    make(map[string]int),
		fsyncLat: &metrics.Histogram{},
	}
	dirf, err := os.Open(filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("plog: opening directory of %s: %w", path, err)
	}
	l.dirf = dirf
	if err := l.recover(); err != nil {
		if l.f != nil {
			l.f.Close()
		}
		dirf.Close()
		return nil, err
	}
	if l.opts.CheckpointEvery > 0 {
		l.compactReq = make(chan struct{}, 1)
		l.compactStop = make(chan struct{})
		l.compactDone = make(chan struct{})
		go l.compactor()
	}
	return l, nil
}

// addReceivedLocked records one received alert in memory, taking
// ownership of payload. Callers pass a private copy when the bytes
// came from outside.
func (l *Log) addReceivedLocked(key string, payload []byte, at time.Time) {
	if _, ok := l.index[key]; ok {
		return // duplicate RECV: first wins
	}
	l.index[key] = len(l.order)
	l.order = append(l.order, Record{Key: key, Payload: payload, ReceivedAt: at})
	l.total++
}

// markProcessedLocked tombstones one record, dropping its payload
// immediately; the periodic sweep retires the tombstone itself.
func (l *Log) markProcessedLocked(i int) {
	l.order[i].Processed = true
	l.order[i].Payload = nil
	l.processedLive++
}

// maybeSweepLocked retires accumulated tombstones once at least
// SweepEvery of them are resident and they make up at least half of
// the resident records, keeping memory O(unprocessed). The half rule
// makes the sweep amortized O(1) per record: a sweep copies at most as
// many live records as it drops tombstones, so draining an N-record
// backlog costs O(N) rather than O(N²/SweepEvery).
func (l *Log) maybeSweepLocked() {
	if l.opts.SweepEvery <= 0 || l.processedLive < l.opts.SweepEvery || 2*l.processedLive < len(l.order) {
		return
	}
	l.sweeps++
	kept := make([]Record, 0, len(l.order)-l.processedLive)
	for _, r := range l.order {
		if !r.Processed {
			kept = append(kept, r)
		}
	}
	l.retired += int64(len(l.order) - len(kept))
	l.order = kept
	l.index = make(map[string]int, len(kept))
	for i, r := range kept {
		l.index[r.Key] = i
	}
	l.processedLive = 0
}

// LogReceived durably records an incoming alert before it is
// acknowledged. Logging the same key twice is a no-op (idempotent), so
// replay after a crash-during-ack is safe.
func (l *Log) LogReceived(key string, payload []byte, at time.Time) error {
	if key == "" {
		return errors.New("plog: empty key")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, ok := l.index[key]; ok {
		return nil
	}
	l.encBuf = appendRecv(l.encBuf[:0], at.UnixNano(), key, payload)
	if err := l.appendLocked(l.encBuf, 1); err != nil {
		return err
	}
	l.addReceivedLocked(key, append([]byte(nil), payload...), at)
	return nil
}

// Replace atomically supersedes oldKey with a fresh record under
// newKey: one fsynced append carrying RECV(newKey) followed by
// DONE(oldKey), so a crash can never lose both generations — a torn
// tail drops at most the DONE, leaving old and new records visible for
// the caller's replay collapse to reconcile (newKey is written first
// for exactly that reason). A missing or already-processed oldKey is
// tolerated (the supersede is then a plain LogReceived); a newKey that
// already exists is idempotent, and oldKey is still retired. This is
// the retry outbox's round-update primitive: each redelivery round
// re-persists the envelope under a round-stamped key and tombstones
// the previous round in the same fsync.
func (l *Log) Replace(oldKey, newKey string, payload []byte, at time.Time) error {
	if newKey == "" {
		return errors.New("plog: empty key")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var records int64
	buf := l.encBuf[:0]
	_, newExists := l.index[newKey]
	if !newExists {
		buf = appendRecv(buf, at.UnixNano(), newKey, payload)
		records++
	}
	oldIdx, oldOK := l.index[oldKey]
	retireOld := oldOK && oldKey != newKey && !l.order[oldIdx].Processed
	if retireOld {
		buf = appendDone(buf, at.UnixNano(), oldKey)
		records++
	}
	l.encBuf = buf
	if records == 0 {
		return nil
	}
	if err := l.appendLocked(buf, records); err != nil {
		return err
	}
	if !newExists {
		l.addReceivedLocked(newKey, append([]byte(nil), payload...), at)
	}
	if retireOld {
		// addReceivedLocked may have grown l.order; re-resolve the index.
		l.markProcessedLocked(l.index[oldKey])
		l.maybeSweepLocked()
	}
	return nil
}

// MarkProcessed durably records that the alert has been fully routed.
func (l *Log) MarkProcessed(key string, at time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	i, ok := l.index[key]
	if !ok {
		return fmt.Errorf("plog: mark processed %q: %w", key, ErrUnknownKey)
	}
	if l.order[i].Processed {
		return nil
	}
	l.encBuf = appendDone(l.encBuf[:0], at.UnixNano(), key)
	if err := l.appendLocked(l.encBuf, 1); err != nil {
		return err
	}
	l.markProcessedLocked(i)
	l.maybeSweepLocked()
	return nil
}

// appendLocked writes and fsyncs buf (records complete journal lines)
// to the active segment, rotating first if the append would overflow
// it — so one write, and in particular one group-commit batch, never
// spans a rotation fsync. The caller holds l.mu.
func (l *Log) appendLocked(buf []byte, records int64) error {
	if l.activeSize > segHeaderSize && l.activeSize+int64(len(buf)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(buf)
	if err != nil {
		return fmt.Errorf("plog: appending to %s: %w", l.f.Name(), err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("plog: syncing %s: %w", l.f.Name(), err)
	}
	l.fsyncLat.Observe(time.Since(start).Microseconds())
	l.syncs.Add(1)
	l.activeSize += int64(n)
	l.sinceCkpt += records
	l.maybeCompactLocked()
	return nil
}

// appendBatch writes a group of journal records with a single fsync —
// the group-commit primitive. Records land on disk in buf order; a
// crash mid-write tears at most a suffix of the batch, which recovery
// truncates at the last complete line. The whole batch lands in one
// segment (rotation happens before the write, never inside it).
func (l *Log) appendBatch(buf []byte, records int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.appendLocked(buf, records)
}

// stageReceived records the alert in memory and appends the encoded
// journal line to dst, returning the grown buffer. fresh is false when
// the key was already logged. Used by GroupLog, which must stage
// entries before their batch is durable.
func (l *Log) stageReceived(dst []byte, key string, payload []byte, at time.Time) (out []byte, fresh bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return dst, false, ErrClosed
	}
	if _, ok := l.index[key]; ok {
		return dst, false, nil
	}
	dst = appendRecv(dst, at.UnixNano(), key, payload)
	l.addReceivedLocked(key, append([]byte(nil), payload...), at)
	return dst, true, nil
}

// stageProcessed is stageReceived's counterpart for DONE records.
func (l *Log) stageProcessed(dst []byte, key string, at time.Time) (out []byte, fresh bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return dst, false, ErrClosed
	}
	i, ok := l.index[key]
	if !ok {
		return dst, false, fmt.Errorf("plog: mark processed %q: %w", key, ErrUnknownKey)
	}
	if l.order[i].Processed {
		return dst, false, nil
	}
	dst = appendDone(dst, at.UnixNano(), key)
	l.markProcessedLocked(i)
	l.maybeSweepLocked()
	return dst, true, nil
}

// BatchEntry is one incoming record in a batched ingest call
// (GroupLog.LogReceivedBatch).
type BatchEntry struct {
	Key     string
	Payload []byte
	At      time.Time
}

// stageReceivedBatch is stageReceived vectorized: it stages every fresh
// entry under a single index-lock acquisition, appending all encoded
// journal lines to dst in entry order. staged counts the fresh entries;
// duplicates are skipped (first RECV wins, as in LogReceived).
func (l *Log) stageReceivedBatch(dst []byte, entries []BatchEntry) (out []byte, staged int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return dst, 0, ErrClosed
	}
	for i := range entries {
		e := &entries[i]
		if _, ok := l.index[e.Key]; ok {
			continue
		}
		dst = appendRecv(dst, e.At.UnixNano(), e.Key, e.Payload)
		l.addReceivedLocked(e.Key, append([]byte(nil), e.Payload...), e.At)
		staged++
	}
	return dst, staged, nil
}

// stageProcessedBatch is stageProcessed vectorized: DONE records for
// every key staged under one index-lock acquisition, with one sweep
// check at the end. Per-key failures (ErrUnknownKey) land in errs,
// which is nil when every key staged cleanly and otherwise parallel to
// keys; already-processed keys are no-ops.
func (l *Log) stageProcessedBatch(dst []byte, keys []string, at time.Time) (out []byte, staged int64, errs []error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		errs = make([]error, len(keys))
		for i := range errs {
			errs[i] = ErrClosed
		}
		return dst, 0, errs
	}
	nanos := at.UnixNano()
	for i, key := range keys {
		j, ok := l.index[key]
		if !ok {
			if errs == nil {
				errs = make([]error, len(keys))
			}
			errs[i] = fmt.Errorf("plog: mark processed %q: %w", key, ErrUnknownKey)
			continue
		}
		if l.order[j].Processed {
			continue
		}
		dst = appendDone(dst, nanos, key)
		l.markProcessedLocked(j)
		staged++
	}
	if staged > 0 {
		l.maybeSweepLocked()
	}
	return dst, staged, errs
}

// Syncs returns the number of fsyncs issued since Open — the figure of
// merit group commit improves.
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// FsyncLatency returns the fsync-latency histogram (microseconds).
func (l *Log) FsyncLatency() metrics.HistogramSnapshot { return l.fsyncLat.Snapshot() }

// Has reports whether key is resident in the log's memory: logged and
// not yet retired by the sweep (a retired key re-logs as a fresh
// record, which downstream timestamp dedup discards).
func (l *Log) Has(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.index[key]
	return ok
}

// IsProcessed reports whether key has been marked processed and is
// still resident in memory.
func (l *Log) IsProcessed(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.index[key]
	return ok && l.order[i].Processed
}

// Unprocessed returns the records received but not yet processed, in
// arrival order — the restart replay set.
func (l *Log) Unprocessed() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	for _, r := range l.order {
		if !r.Processed {
			cp := r
			cp.Payload = append([]byte(nil), r.Payload...)
			out = append(out, cp)
		}
	}
	return out
}

// Len returns the all-time number of logged alerts, including records
// retired from memory and compacted off disk.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.total)
}

// Pending returns the number of live records not yet marked processed
// — the replay backlog a restart would face right now. Cheap (two
// fields under the lock, no payload copies), so resource-invariant
// checks can poll it.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order) - l.processedLive
}

// Stats snapshots the segmentation/compaction state.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Total:            l.total,
		Live:             len(l.order),
		Unprocessed:      len(l.order) - l.processedLive,
		Retired:          l.retired,
		CorruptRecords:   l.corrupt,
		Segments:         l.liveSegs,
		ActiveSegment:    l.activeSeq,
		SegmentsCreated:  l.segsCreated.Load(),
		SegmentsReplayed: l.replayedSegs,
		CheckpointGen:    l.ckptGen,
		Checkpoints:      l.ckptsWritten.Load(),
		CompactedBytes:   l.compactedBytes.Load(),
		Syncs:            l.syncs.Load(),
		FsyncLatency:     l.fsyncLat.Snapshot(),
	}
	for seq := l.oldestSeq; seq < l.activeSeq; seq++ {
		if fi, err := os.Stat(l.segPath(seq)); err == nil {
			s.DiskBytes += fi.Size()
		}
	}
	// The active segment counts its written bytes, not its preallocated
	// file size.
	s.DiskBytes += l.activeSize
	if l.ckptGen > 0 {
		if fi, err := os.Stat(l.ckptPath(l.ckptGen)); err == nil {
			s.DiskBytes += fi.Size()
		}
	}
	return s
}

// Path returns the journal base path (segments and checkpoints are
// derived from it).
func (l *Log) Path() string { return l.base }

// Close stops the background compactor and releases the file handles.
// Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.compactStop != nil {
		close(l.compactStop)
		<-l.compactDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Drop the preallocated tail so a closed journal occupies only its
	// real bytes (best-effort; an untruncated zero tail replays
	// cleanly).
	_ = l.f.Truncate(l.activeSize)
	err := l.f.Close()
	if derr := l.dirf.Close(); err == nil {
		err = derr
	}
	return err
}
