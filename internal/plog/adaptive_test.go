package plog

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"simba/internal/metrics"
)

// The adaptive committer's contract: Window is an upper bound on the
// commit wait, not a constant tax. These tests pick absurdly large
// windows so a scheduler that ever waits the full window times out
// loudly, while the adaptive paths (idle fire, threshold force-flush,
// close) finish in milliseconds. Generous elapsed bounds keep them
// honest on slow CI machines.

// TestAdaptiveIdleFiresImmediately: an append that wakes a parked
// committer commits immediately — even right after a previous fsync.
func TestAdaptiveIdleFiresImmediately(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := g.LogReceived(fmt.Sprintf("k%d", i), []byte("p"), t0); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("idle append %d took %v, want immediate (window 30s)", i, el)
		}
	}
}

// TestAdaptiveIdleGapCountsAsWindow: with a small window, a burst, an
// idle gap longer than the window, then another burst — the second
// burst must commit without re-waiting the window.
func TestAdaptiveIdleGapCountsAsWindow(t *testing.T) {
	const window = 50 * time.Millisecond
	g := openGroupTemp(t, GroupOptions{Window: window})
	if err := g.LogReceived("k0", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * window) // idle longer than the window
	start := time.Now()
	if err := g.LogReceived("k1", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > window/2 {
		t.Fatalf("post-idle append waited %v, want well under the %v window", el, window)
	}
}

// logKeys durably logs n keys in one batch and returns them.
func logKeys(t *testing.T, g *GroupLog, n int) []string {
	t.Helper()
	entries := make([]BatchEntry, n)
	keys := make([]string, n)
	for i := range entries {
		keys[i] = fmt.Sprintf("k%d", i)
		entries[i] = BatchEntry{Key: keys[i], Payload: []byte("p"), At: t0}
	}
	if err := g.LogReceivedBatch(entries); err != nil {
		t.Fatal(err)
	}
	return keys
}

// committed reports whether every staged journal line has been
// written and fsynced.
func committed(g *GroupLog) bool { return g.BatchSizes().Sum == g.Appended() }

// markAllAsync stages DONE records for keys from concurrent goroutines
// without waiting, then waits (up to within) for all of them to be
// committed; it fails the test if they stay parked.
func markAllAsync(t *testing.T, g *GroupLog, keys []string, within time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	for _, key := range keys {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if err := g.MarkProcessedAsync(key, t0); err != nil {
				t.Error(err)
			}
		}(key)
	}
	wg.Wait()
	deadline := time.Now().Add(within)
	for !committed(g) {
		if time.Now().After(deadline) {
			t.Fatalf("async DONE records still parked after %v", within)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdaptiveForceFlushRecords: an unwaited backlog at or over
// CommitMaxRecords must commit without waiting out the window. With
// the threshold at 1 record, every backlog qualifies, so no
// interleaving of the concurrent async marks below can leave a
// sub-threshold straggler parked for the 30s window.
func TestAdaptiveForceFlushRecords(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second, CommitMaxRecords: 1})
	markAllAsync(t, g, logKeys(t, g, 8), 10*time.Second)
}

// TestAdaptiveForceFlushBytes: byte-volume threshold, same contract —
// each DONE frame alone exceeds CommitMaxBytes, so any backlog the
// concurrent async marks form is over threshold and must not park.
func TestAdaptiveForceFlushBytes(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second, CommitMaxBytes: 16})
	markAllAsync(t, g, logKeys(t, g, 8), 10*time.Second)
}

// TestAdaptiveAsyncBacklogPacedUntilWaited: a backlog of async DONE
// records that formed while an fsync ran is held for the window, and
// the first append a caller blocks on ends the window for it.
func TestAdaptiveAsyncBacklogPacedUntilWaited(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	// Stage marks in quick rounds: the first mark of a round wakes the
	// parked committer, and marks staged while its fsync runs are left
	// as a backlog, which the committer paces. A round whose marks all
	// made the first commit leaves nothing behind; try the next one.
	const rounds, perRound = 10, 2000
	keys := logKeys(t, g, rounds*perRound)
	paced := false
	for r := 0; r < rounds && !paced; r++ {
		for _, key := range keys[r*perRound : (r+1)*perRound] {
			if err := g.MarkProcessedAsync(key, t0); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(50 * time.Millisecond)
		paced = !committed(g)
	}
	if !paced {
		t.Fatal("no async backlog was held back, want it paced (window 30s)")
	}
	start := time.Now()
	if err := g.LogReceived("waited", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("waited append behind a paced backlog took %v, want the window cut", el)
	}
	if !committed(g) {
		t.Fatal("paced backlog not committed with the waited append")
	}
}

// TestAdaptiveCloseCutsWindowShort: Close must not strand a committer
// parked mid-window — the staged async backlog commits and Close
// returns.
func TestAdaptiveCloseCutsWindowShort(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	for _, key := range logKeys(t, g, 20000) {
		if err := g.MarkProcessedAsync(key, t0); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("Close took %v, want immediate flush (window 30s)", el)
	}
	if !committed(g) {
		t.Fatal("async backlog staged before Close was not committed")
	}
}

// TestGroupLogOpenCloseLeak cycles a journal open/append/close 1000
// times and checks the process goroutine count stays flat: every
// committer exits and every window timer is stopped and drained.
func TestGroupLogOpenCloseLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("1k open/close cycles")
	}
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		g, err := OpenGroup(fmt.Sprintf("%s/leak%03d.plog", dir, i%8), GroupOptions{Window: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.LogReceived(fmt.Sprintf("k%d", i), []byte("p"), t0); err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Give any stragglers a moment, then compare with slack for runtime
	// background goroutines.
	var after int
	for wait := 0; wait < 50; wait++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d across 1000 open/close cycles", before, after)
}

// TestFlushDueOnlyWhenWaited pins the pacing decision without a
// committer racing it: a backlog of async DONE records is not due (the
// committer may pace it), and it becomes due — with the window-cut
// signal raised — the moment a caller blocks on it, whether by staging
// a fresh record or by re-logging a duplicate.
func TestFlushDueOnlyWhenWaited(t *testing.T) {
	l, err := OpenWithOptions(filepath.Join(t.TempDir(), "due.plog"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Each pass marks its own two records; the second pass's waiter
	// re-logs one of them.
	for _, key := range []string{"a0", "b0", "a1", "b1"} {
		if _, _, err := l.stageReceived(nil, key, []byte("p"), t0); err != nil {
			t.Fatal(err)
		}
	}
	for pass, waiter := range []string{"fresh", "a1"} {
		marks := []string{fmt.Sprintf("a%d", pass), fmt.Sprintf("b%d", pass)}
		g := &GroupLog{
			log:         l,
			opts:        GroupOptions{Window: time.Hour, MaxBatch: 1024, CommitMaxRecords: 1024, CommitMaxBytes: 1 << 20},
			flushNow:    make(chan struct{}, 1),
			batchSizes:  &metrics.Histogram{},
			stagedSizes: &metrics.Histogram{},
			commitWait:  &metrics.Histogram{},
		}
		g.cond = sync.NewCond(&g.mu)
		if errs := g.MarkProcessedBatchAsync(marks, t0); errs != nil {
			t.Fatalf("async marks: %v", errs)
		}
		if g.flushDueLocked() || len(g.flushNow) != 0 {
			t.Fatalf("%s: async-only backlog is due, want it paceable", waiter)
		}
		if _, err := g.LogReceivedBatchStart([]BatchEntry{{Key: waiter, Payload: []byte("p"), At: t0}}); err != nil {
			t.Fatal(err)
		}
		if !g.flushDueLocked() || len(g.flushNow) != 1 {
			t.Fatalf("%s: waited backlog not due or window not cut", waiter)
		}
	}
}
