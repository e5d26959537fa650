package hub

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/faults"
	"simba/internal/plog"
)

// TestHubCrashAcrossWALRotation crashes the hub while its WAL is
// rotating segments: WALSegmentBytes is tiny, so the workload spans
// several segments when the kill lands. The next incarnation must
// replay the multi-segment tail without losing a single logged alert.
func TestHubCrashAcrossWALRotation(t *testing.T) {
	const users, perUser = 4, 5
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	crash := faults.NewFlag("hub-crash-before-mark")
	hold := make(chan struct{})
	sink := newCountingSink(hold)

	cfg := Config{
		Clock: clk, Sink: sink, WALPath: walPath,
		Shards: 1, QueueDepth: 64,
		WALSegmentBytes:    256, // force a rotation every couple of records
		WALCheckpointEvery: -1,  // deterministic: replay every segment
		CrashBeforeMark:    crash,
	}
	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < users*perUser; i++ {
		user := fmt.Sprintf("user-%d", i%users)
		a := portalAlert(i, clk.Now())
		if err := h1.Submit(user, a); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, user+"/"+a.DedupKey())
	}
	if segs := h1.Stats().WAL.Segments; segs < 3 {
		t.Fatalf("workload only spans %d segments; rotation not exercised", segs)
	}
	sink.waitArrivals(t, users)
	crash.Set(true, clk.Now())
	close(hold)
	select {
	case <-h1.Stopped():
	case <-time.After(10 * time.Second):
		t.Fatal("hub did not die after fault injection")
	}
	sink.waitTotal(t, users)

	// Restart on the same multi-segment WAL.
	crash.Set(false, clk.Now())
	sink.hold = nil
	cfg.Sink = sink
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if replayed := h2.Stats().WAL.SegmentsReplayed; replayed < 3 {
		t.Fatalf("recovery replayed %d segments, expected the full multi-segment tail", replayed)
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	// No DONE record landed before the crash, so everything replays; the
	// parked heads are the documented dedup-contract duplicates.
	if got := h2.Counters().Get("replayed"); got != users*perUser {
		t.Fatalf("replayed = %d, want %d", got, users*perUser)
	}
	for i, uk := range keys {
		want := 1
		if i < users {
			want = 2
		}
		user, key, _ := cut(uk)
		if got := sink.count(user, key); got != want {
			t.Fatalf("alert %d (%s) delivered %d times, want %d", i, uk, got, want)
		}
	}
	l, err := plog.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if un := l.Unprocessed(); len(un) != 0 {
		t.Fatalf("%d unprocessed WAL entries after recovery", len(un))
	}
	if l.Len() != users*perUser {
		t.Fatalf("WAL holds %d records, want %d", l.Len(), users*perUser)
	}
}

// TestHubCrashDuringWALCheckpoint simulates dying mid-checkpoint: after
// a durable generation-1 checkpoint, the hub crashes with a torn
// generation-2 checkpoint and a half-written tmp file on disk (the
// compactor's crash window — its covered segments are deleted only
// after the checkpoint is durable, so they all still exist). Recovery
// must discard the torn artifacts, fall back to generation 1, and
// replay the full segment tail: no unprocessed alert may be lost.
func TestHubCrashDuringWALCheckpoint(t *testing.T) {
	const users, phase1, phase2 = 2, 8, 4
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	crash := faults.NewFlag("hub-crash-before-mark")
	sink := newCountingSink(nil)

	cfg := Config{
		Clock: clk, Sink: sink, WALPath: walPath,
		Shards: 1, QueueDepth: 64,
		WALSegmentBytes:    256,
		WALCheckpointEvery: -1, // checkpoints are forced explicitly below
		CrashBeforeMark:    crash,
	}
	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	// Phase 1 flows through and is checkpointed (generation 1).
	var keys []string
	for i := 0; i < phase1; i++ {
		user := fmt.Sprintf("user-%d", i%users)
		a := portalAlert(i, clk.Now())
		if err := h1.Submit(user, a); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, user+"/"+a.DedupKey())
	}
	sink.waitTotal(t, phase1)
	if err := h1.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	if gen := h1.Stats().WAL.CheckpointGen; gen != 1 {
		t.Fatalf("checkpoint generation = %d, want 1", gen)
	}
	// Phase 2 is parked inside the delivery window when the crash fires.
	// Phase 1's arrival signals are stale by now — drain them so
	// waitArrivals below waits for phase 2's parked deliveries, not
	// buffered history.
	sink.drainArrivals()
	hold := make(chan struct{})
	sink.hold = hold
	for i := phase1; i < phase1+phase2; i++ {
		user := fmt.Sprintf("user-%d", i%users)
		a := portalAlert(i, clk.Now())
		if err := h1.Submit(user, a); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, user+"/"+a.DedupKey())
	}
	sink.waitArrivals(t, users)
	crash.Set(true, clk.Now())
	close(hold)
	select {
	case <-h1.Stopped():
	case <-time.After(10 * time.Second):
		t.Fatal("hub did not die after fault injection")
	}
	sink.waitTotal(t, phase1+users)

	// Crash artifacts of a torn generation-2 checkpoint write.
	if err := os.WriteFile(walPath+".ckpt.tmp", []byte("CKPT 1 2 9"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath+".ckpt.00000002", []byte("CKPT 1 2 99 1 99 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	crash.Set(false, clk.Now())
	sink.hold = nil
	cfg.Sink = sink
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	wst := h2.Stats().WAL
	if wst.CheckpointGen != 1 {
		t.Fatalf("recovery used checkpoint generation %d, want fallback to 1", wst.CheckpointGen)
	}
	if wst.CorruptRecords == 0 {
		t.Fatal("torn checkpoint not counted as corruption")
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	// Every phase-2 alert was unprocessed at the crash and must replay;
	// phase-1 DONEs may or may not have been flushed (they are staged
	// asynchronously), so replays of those are legal duplicates — but
	// nothing may be lost.
	if got := h2.Counters().Get("replayed"); got < phase2 {
		t.Fatalf("replayed = %d, want >= %d", got, phase2)
	}
	for i, uk := range keys {
		user, key, _ := cut(uk)
		if got := sink.count(user, key); got < 1 {
			t.Fatalf("alert %d (%s) lost across checkpoint crash (delivered %d times)", i, uk, got)
		}
	}
	l, err := plog.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if un := l.Unprocessed(); len(un) != 0 {
		t.Fatalf("%d unprocessed WAL entries after recovery", len(un))
	}
	if l.Len() != phase1+phase2 {
		t.Fatalf("all-time WAL total = %d, want %d", l.Len(), phase1+phase2)
	}
}

// activeSegment returns the highest-numbered segment of the WAL
// (zero-padded sequence numbers sort lexically).
func activeSegment(t *testing.T, walPath string) string {
	t.Helper()
	matches, err := filepath.Glob(walPath + ".*.seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatalf("no segments for %s", walPath)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

// segmentFrames walks one binary segment by its length prefixes and
// returns how many complete frames it holds and where valid data ends
// (the preallocated zero tail parses as a zero length and stops the
// walk, exactly like recovery).
func segmentFrames(t *testing.T, path string) (frames int, validEnd int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const magicLen, overhead = 8, 17
	off := magicLen
	for off+4 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n < overhead || off+4+n > len(data) {
			break
		}
		off += 4 + n
		frames++
	}
	return frames, int64(off)
}

// TestHubCrashTearsLastWALFrame simulates the machine dying while the
// WAL's last write was still reaching the disk: the burst's final
// frame is torn mid-record. Recovery must replay every other acked
// alert exactly once, treat the torn tail as clean (not corrupt), and
// dedup a re-submission of the burst down to exactly the torn record.
func TestHubCrashTearsLastWALFrame(t *testing.T) {
	const users, perUser = 8, 4
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	crash := faults.NewFlag("crash-after-batch-fsync")
	journal := &faults.Journal{}
	sink1 := newCountingSink(nil)
	cfg := Config{
		Clock: clk, Sink: sink1, WALPath: walPath,
		Shards: 4, QueueDepth: 256,
		CrashAfterBatchFsync: crash, Journal: journal,
	}
	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	var burst []Submission
	var keys []string
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		for i := 0; i < perUser; i++ {
			a := portalAlert(i, clk.Now())
			a.ID = fmt.Sprintf("a-%s-%d", user, i)
			burst = append(burst, Submission{User: user, Alert: a})
			keys = append(keys, user+"/"+a.DedupKey())
		}
	}
	// The kill lands after the burst's fsync, before any enqueue: every
	// record is durable, nothing delivered.
	crash.Set(true, clk.Now())
	for i, err := range h1.SubmitBatch(burst) {
		if err != nil {
			t.Fatalf("burst entry %d: %v", i, err)
		}
	}
	select {
	case <-h1.Stopped():
	case <-time.After(15 * time.Second):
		t.Fatal("hub did not stop after injected crash")
	}

	// The burst is one run of frames in submit order; tear the last one
	// mid-frame, as if the write never finished hitting the platter.
	seg := activeSegment(t, walPath)
	frames, validEnd := segmentFrames(t, seg)
	if frames != len(burst) {
		t.Fatalf("WAL holds %d records, want %d", frames, len(burst))
	}
	if err := os.Truncate(seg, validEnd-5); err != nil {
		t.Fatal(err)
	}

	crash.Set(false, clk.Now())
	sink2 := newCountingSink(nil)
	cfg.Sink = sink2
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := h2.Counters().Get("replayed"); got != int64(len(burst)-1) {
		t.Fatalf("replayed = %d, want %d (all but the torn record)", got, len(burst)-1)
	}
	st := h2.Stats()
	if st.WAL.CorruptRecords != 0 {
		t.Fatalf("clean torn tail counted as %d corrupt records", st.WAL.CorruptRecords)
	}
	if st.WAL.Total != int64(len(burst)-1) {
		t.Fatalf("WAL recovered %d records, want %d", st.WAL.Total, len(burst)-1)
	}
	if len(st.WALPerLane) != 1 || st.WALPerLane[0].Total != st.WAL.Total {
		t.Fatalf("WALPerLane = %d entries, want the one WAL snapshot", len(st.WALPerLane))
	}
	// Re-submitting the burst re-admits exactly the torn record; the
	// rest dedup against their replayed RECV entries.
	for i, err := range h2.SubmitBatch(burst) {
		if err != nil {
			t.Fatalf("re-submit entry %d: %v", i, err)
		}
	}
	if got := h2.Counters().Get("duplicates"); got != int64(len(burst)-1) {
		t.Fatalf("duplicates = %d, want %d", got, len(burst)-1)
	}
	if got := h2.Counters().Get("received"); got != 1 {
		t.Fatalf("received = %d, want 1 (the torn record)", got)
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, uk := range keys {
		user, key, _ := cut(uk)
		if got := sink2.count(user, key); got != 1 {
			t.Fatalf("alert %d (%s) delivered %d times, want exactly 1", i, uk, got)
		}
	}
}

// TestHubRefusesWALWithLaneFiles: a WAL directory still holding
// "<WALPath>.lane*" files from a multi-lane layout must not open —
// reading only the base journal would strand the lanes' acked alerts.
func TestHubRefusesWALWithLaneFiles(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	lane := walPath + ".lane01.00000001.seg"
	if err := os.WriteFile(lane, []byte("SIMBAW1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{Clock: clock.NewReal(), Sink: newCountingSink(nil), WALPath: walPath})
	if err == nil {
		h.Drain()
		t.Fatal("New opened a WAL with lane files")
	}
	if !strings.Contains(err.Error(), lane) {
		t.Fatalf("error %q does not name %s", err, lane)
	}
	if _, err := os.Stat(walPath + ".00000001.seg"); !os.IsNotExist(err) {
		t.Fatal("New created a base segment before refusing")
	}
}
