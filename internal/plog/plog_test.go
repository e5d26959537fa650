package plog

import (
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func openTemp(t *testing.T) *Log {
	t.Helper()
	l, err := Open(filepath.Join(t.TempDir(), "alerts.plog"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// segmentsOf returns the on-disk segment paths for base, ascending
// (zero-padded sequence numbers sort lexically).
func segmentsOf(t *testing.T, base string) []string {
	t.Helper()
	matches, err := filepath.Glob(base + ".*.seg")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}

// activeSegmentPath returns the highest-numbered (active) segment.
func activeSegmentPath(t *testing.T, base string) string {
	t.Helper()
	segs := segmentsOf(t, base)
	if len(segs) == 0 {
		t.Fatalf("no segments for %s", base)
	}
	return segs[len(segs)-1]
}

var t0 = time.Date(2001, 3, 26, 9, 0, 0, 0, time.UTC)

func TestLogReceivedAndMark(t *testing.T) {
	l := openTemp(t)
	if err := l.LogReceived("", []byte("x"), t0); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := l.LogReceived("k1", []byte("payload-1"), t0); err != nil {
		t.Fatal(err)
	}
	if !l.Has("k1") || l.IsProcessed("k1") {
		t.Fatal("wrong state after LogReceived")
	}
	if got := l.Unprocessed(); len(got) != 1 || got[0].Key != "k1" || string(got[0].Payload) != "payload-1" {
		t.Fatalf("Unprocessed = %+v", got)
	}
	if err := l.MarkProcessed("k1", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !l.IsProcessed("k1") || len(l.Unprocessed()) != 0 {
		t.Fatal("wrong state after MarkProcessed")
	}
	if err := l.MarkProcessed("k1", t0); err != nil {
		t.Fatal("second MarkProcessed should be a no-op")
	}
	if err := l.MarkProcessed("ghost", t0); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("MarkProcessed(ghost) = %v", err)
	}
}

func TestDuplicateLogReceivedIdempotent(t *testing.T) {
	l := openTemp(t)
	if err := l.LogReceived("k", []byte("first"), t0); err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("k", []byte("second"), t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len() = %d", l.Len())
	}
	if got := l.Unprocessed(); string(got[0].Payload) != "first" {
		t.Fatalf("duplicate overwrote payload: %q", got[0].Payload)
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.plog")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := l.LogReceived(key, []byte("p"+key), t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.MarkProcessed("k0", t0); err != nil {
		t.Fatal(err)
	}
	if err := l.MarkProcessed("k3", t0); err != nil {
		t.Fatal(err)
	}
	// Simulate crash: no orderly shutdown beyond closing the handle.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	un := l2.Unprocessed()
	wantKeys := []string{"k1", "k2", "k4"}
	if len(un) != len(wantKeys) {
		t.Fatalf("Unprocessed after recovery = %+v", un)
	}
	for i, k := range wantKeys {
		if un[i].Key != k {
			t.Fatalf("Unprocessed[%d] = %q, want %q (arrival order)", i, un[i].Key, k)
		}
		if string(un[i].Payload) != "p"+k {
			t.Fatalf("payload mismatch for %q", k)
		}
		if !un[i].ReceivedAt.Equal(t0.Add(time.Duration(k[1]-'0') * time.Second)) {
			t.Fatalf("timestamp mismatch for %q: %v", k, un[i].ReceivedAt)
		}
	}
	// Writing after recovery works.
	if err := l2.LogReceived("k5", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if err := l2.MarkProcessed("k1", t0); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.plog")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("good", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Append a torn RECV line (crash mid-write) to the active segment.
	f, err := os.OpenFile(activeSegmentPath(t, path), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("RECV 123 aGFsZg"); err != nil { // no payload field, no newline
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 1 || !l2.Has("good") {
		t.Fatalf("recovered state wrong: len=%d", l2.Len())
	}
	// And the log remains appendable.
	if err := l2.LogReceived("after-tear", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if !l3.Has("after-tear") {
		t.Fatal("post-tear append lost")
	}
}

func TestClosedLogRejectsWrites(t *testing.T) {
	l := openTemp(t)
	if err := l.LogReceived("k", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := l.LogReceived("k2", []byte("p"), t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("LogReceived after close = %v", err)
	}
	if err := l.MarkProcessed("k", t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("MarkProcessed after close = %v", err)
	}
}

func TestUnprocessedReturnsCopies(t *testing.T) {
	l := openTemp(t)
	if err := l.LogReceived("k", []byte("abc"), t0); err != nil {
		t.Fatal(err)
	}
	got := l.Unprocessed()
	got[0].Payload[0] = 'X'
	if string(l.Unprocessed()[0].Payload) != "abc" {
		t.Fatal("Unprocessed aliases internal payload")
	}
}

// Property: for any interleaving of receive/process operations, a
// reopened log reports exactly the keys that were received but not
// processed, in arrival order — i.e. replay is lossless and idempotent.
func TestRecoveryProperty(t *testing.T) {
	type op struct {
		Key     uint8
		Process bool
	}
	f := func(ops []op) bool {
		// Fresh directory per run: segments and checkpoints live
		// alongside the base path.
		dir, err := os.MkdirTemp(t.TempDir(), "prop")
		if err != nil {
			return false
		}
		path := filepath.Join(dir, "prop.plog")
		l, err := Open(path)
		if err != nil {
			return false
		}
		received := map[string]bool{}
		processed := map[string]bool{}
		var arrival []string
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%16)
			if o.Process {
				if received[key] {
					if err := l.MarkProcessed(key, t0); err != nil {
						l.Close()
						return false
					}
					processed[key] = true
				}
				continue
			}
			if !received[key] {
				arrival = append(arrival, key)
				received[key] = true
			}
			if err := l.LogReceived(key, []byte(key), t0); err != nil {
				l.Close()
				return false
			}
		}
		l.Close()
		l2, err := Open(path)
		if err != nil {
			return false
		}
		defer l2.Close()
		var wantUnprocessed []string
		for _, k := range arrival {
			if !processed[k] {
				wantUnprocessed = append(wantUnprocessed, k)
			}
		}
		got := l2.Unprocessed()
		if len(got) != len(wantUnprocessed) {
			return false
		}
		for i := range got {
			if got[i].Key != wantUnprocessed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func b64(s string) string {
	return base64.StdEncoding.EncodeToString([]byte(s))
}
