package plog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// frameEnds walks a binary segment exactly like recovery does and
// returns the absolute end offset of every complete CRC-valid frame.
func frameEnds(data []byte) []int {
	if len(data) < int(segHeaderSize) || string(data[:len(segMagic)]) != segMagic {
		return nil
	}
	var ends []int
	off := int(segHeaderSize)
	for off+4 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n < frameOverhead || n > frameMaxLen || off+4+n > len(data) {
			break
		}
		body := data[off+4 : off+4+n-4]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+4+n-4:off+4+n]) {
			break
		}
		off += 4 + n
		ends = append(ends, off)
	}
	return ends
}

// TestGroupLogTailCorruptionFuzz flips random bytes in the journal's
// binary tail: recovery must stop at the last frame before the flip,
// count the corruption in CorruptRecords, and keep the surviving
// prefix intact.
func TestGroupLogTailCorruptionFuzz(t *testing.T) {
	const records = 24
	base := filepath.Join(t.TempDir(), "fuzz.plog")
	g, err := OpenGroup(base, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		key := fmt.Sprintf("k%04d", i)
		if err := g.LogReceived(key, []byte("payload-"+key), t0.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegmentPath(t, base)
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(pristine)
	if len(ends) != records || ends[len(ends)-1] != len(pristine) {
		t.Fatalf("pristine segment holds %d frames over %d bytes", len(ends), len(pristine))
	}

	rnd := rand.New(rand.NewSource(20010326))
	for trial := 0; trial < 25; trial++ {
		off := int(segHeaderSize) + rnd.Intn(len(pristine)-int(segHeaderSize))
		data := append([]byte(nil), pristine...)
		data[off] ^= 0xFF
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Every frame ending at or before the flip survives; the flipped
		// frame and everything after it is lost.
		survivors := 0
		for _, e := range ends {
			if e <= off {
				survivors++
			}
		}
		// Whether the stop is *provably* corruption depends on where the
		// flip landed: a bad length or failed checksum is counted, but a
		// flipped length prefix that claims more bytes than the file
		// holds is indistinguishable from a torn write and stops silently.
		b := int(segHeaderSize)
		if survivors > 0 {
			b = ends[survivors-1]
		}
		wantCorrupt := false
		if b+4 <= len(data) {
			n := int(binary.LittleEndian.Uint32(data[b : b+4]))
			if n < frameOverhead || n > frameMaxLen {
				wantCorrupt = true
			} else if b+4+n <= len(data) {
				wantCorrupt = true // frame complete, so the flip breaks its CRC
			}
		}
		re, err := OpenGroup(base, GroupOptions{})
		if err != nil {
			t.Fatalf("trial %d (flip@%d): recovery rejected corrupt tail: %v", trial, off, err)
		}
		if got := re.Len(); got != survivors {
			t.Fatalf("trial %d (flip@%d): recovered %d records, want %d", trial, off, got, survivors)
		}
		if got := re.Stats().CorruptRecords > 0; got != wantCorrupt {
			t.Fatalf("trial %d (flip@%d): corruption counted = %v, want %v", trial, off, got, wantCorrupt)
		}
		un := re.Unprocessed()
		if len(un) != survivors {
			t.Fatalf("trial %d: unprocessed = %d, want %d", trial, len(un), survivors)
		}
		for j, rec := range un {
			want := fmt.Sprintf("k%04d", j)
			if rec.Key != want || string(rec.Payload) != "payload-"+want {
				t.Fatalf("trial %d: surviving prefix diverges at %d: %q/%q", trial, j, rec.Key, rec.Payload)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepAmortizedOnBacklogDrain drains a 100k-record backlog one key
// at a time, in arrival order — what a restart's replay does. The sweep
// may run only O(log N) times (each one at least halves the resident
// set), not once per SweepEvery tombstones, and Has/Unprocessed must
// stay exact throughout.
func TestSweepAmortizedOnBacklogDrain(t *testing.T) {
	const n = 100_000
	l, err := OpenWithOptions(filepath.Join(t.TempDir(), "drain.plog"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	entries := make([]BatchEntry, n)
	for i := range entries {
		entries[i] = BatchEntry{Key: fmt.Sprintf("k%06d", i), Payload: []byte("p"), At: t0}
	}
	// Stage through the group-commit staging paths: the in-memory
	// bookkeeping is the subject here, not fsync cost.
	if _, staged, err := l.stageReceivedBatch(nil, entries); err != nil || staged != n {
		t.Fatalf("staged %d (%v), want %d", staged, err, n)
	}
	for i, e := range entries {
		if _, fresh, err := l.stageProcessed(nil, e.Key, t0); err != nil || !fresh {
			t.Fatalf("mark %s: fresh=%v err=%v", e.Key, fresh, err)
		}
		if i%9973 == 0 || i == n/2 {
			if l.IsProcessed(e.Key) != l.Has(e.Key) {
				t.Fatalf("%s: resident tombstone not reported processed", e.Key)
			}
			if i+1 < n && !l.Has(entries[i+1].Key) {
				t.Fatalf("after %d marks: unprocessed %s not resident", i+1, entries[i+1].Key)
			}
			un := l.Unprocessed()
			if len(un) != n-i-1 || (len(un) > 0 && un[0].Key != entries[i+1].Key) {
				t.Fatalf("after %d marks: Unprocessed has %d records, want %d starting at %s", i+1, len(un), n-i-1, entries[i+1].Key)
			}
		}
	}
	if p := l.Pending(); p != 0 {
		t.Fatalf("Pending after drain = %d, want 0", p)
	}
	bound := int(math.Log2(float64(n)/DefaultSweepEvery)) + 2
	if l.sweeps > bound {
		t.Fatalf("drain ran %d sweeps, want <= %d (log2(N/SweepEvery)+2)", l.sweeps, bound)
	}
	if l.sweeps == 0 {
		t.Fatal("drain never swept")
	}
}

// TestTornSegmentHeaderReplaysEmpty covers a crash between creating the
// active segment and the first fsync of its header: zeros or a strict
// prefix of the magic on disk. The segment replays as empty, its magic
// is rewritten in place, and the journal stays appendable.
func TestTornSegmentHeaderReplaysEmpty(t *testing.T) {
	for name, hdr := range map[string][]byte{
		"empty":       {},
		"zeros":       make([]byte, 64),
		"prefix":      []byte(segMagic[:3]),
		"prefix-zero": append([]byte(segMagic[:5]), make([]byte, 32)...),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.plog")
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, l, 3, func(int) bool { return true })
			torn := l.segPath(l.Stats().ActiveSegment + 1)
			l.Close()
			if err := os.WriteFile(torn, hdr, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(path)
			if err != nil {
				t.Fatalf("torn header rejected: %v", err)
			}
			if re.Len() != 3 || re.Stats().CorruptRecords != 0 {
				t.Fatalf("recovered Len %d, corrupt %d; want 3, 0", re.Len(), re.Stats().CorruptRecords)
			}
			if err := re.LogReceived("after", []byte("p"), t0); err != nil {
				t.Fatal(err)
			}
			re.Close()
			data, err := os.ReadFile(torn)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(data), segMagic) || len(frameEnds(data)) != 1 {
				t.Fatalf("rewritten segment = %q, want magic + one frame", data)
			}
			again, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if again.Len() != 4 || !again.Has("after") {
				t.Fatalf("reopen Len %d, want 4 with the post-tear append", again.Len())
			}
		})
	}
}

// TestSegmentWithoutMagicFailsOpen: a segment that does not open with
// the magic — a foreign or pre-binary file, or a zeroed segment that
// is not the active one — makes Open fail with an error naming it.
func TestSegmentWithoutMagicFailsOpen(t *testing.T) {
	for name, tc := range map[string]struct {
		content []byte
		active  bool
	}{
		"text-active":  {[]byte("RECV 1 aw== aw==\n"), true},
		"text-sealed":  {[]byte("RECV 1 aw== aw==\n"), false},
		"zeros-sealed": {make([]byte, 64), false},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.plog")
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, l, 2, func(int) bool { return true })
			active := l.Stats().ActiveSegment
			l.Close()
			bad := l.segPath(active + 1)
			if !tc.active {
				// Seal the bad segment behind a valid active one.
				bad = l.segPath(active)
			}
			if err := os.WriteFile(bad, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			if !tc.active {
				if err := os.WriteFile(l.segPath(active+1), []byte(segMagic), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			re, err := Open(path)
			if err == nil {
				re.Close()
				t.Fatal("Open accepted a segment without the magic")
			}
			if !strings.Contains(err.Error(), bad) {
				t.Fatalf("error %q does not name %s", err, bad)
			}
		})
	}
}
