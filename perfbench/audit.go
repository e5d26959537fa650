package main

import (
	"fmt"
	"sync/atomic"
)

// Confirming channels, as recorded per alert.
const (
	viaNone int32 = iota
	viaIM
	viaEmail
	viaSink
)

var viaNames = [...]string{"none", "IM", "email", "sink"}

// rec is the benchmark's per-alert record, written by the channels, the
// ticket callback and OnDelivery (concurrently, hence atomics) and read
// once the pass has settled. Times are nanoseconds since epoch.
type rec struct {
	acked, refused atomic.Bool
	settled        atomic.Bool

	// The send that confirms delivery (acked IM, accepted email, sink).
	confirmSends atomic.Int32
	confirmSend  atomic.Int64
	// Successful OnDelivery calls, the channel they name and the global
	// confirmation order.
	confirms atomic.Int32
	via      atomic.Int32
	seq      atomic.Int64

	failedAttempts      atomic.Int32
	imSends, emailSends atomic.Int32
}

// spans are the per-alert times and counts only a traced pass records;
// an untraced pass allocates none, so its heap holds only what the
// checks need.
type spans struct {
	attempts, sends         atomic.Int32
	firstSend, firstSendRet atomic.Int64
	firstIM, firstEmail     atomic.Int64
	incoming                atomic.Int64
	confirmAt, lastFailAt   atomic.Int64
}

// outcome is a settled alert as the checker sees it.
type outcome struct {
	user         int32
	acked        bool // its ticket resolved with a nil error
	refused      bool // its ticket resolved with an error
	confirms     int  // successful OnDelivery calls
	confirmSends int  // sends that confirmed it
	emailed      bool // at least one email send (the IM fell back)
	seq          int64
	via          int32
	sc           script
}

// hubCounts are the hub's own delivered/lost counters after a pass.
type hubCounts struct {
	delivered           int64
	byVia               [4]int64 // indexed like viaIM/viaEmail/viaSink
	lostBestEffort      int64
	lostGuaranteed      int64
	checkVia, checkTier bool
}

// maxUnmatchedShare is the largest share of scripted IM acks the hub
// may fail to match before a pass is rejected. Development runs saw at
// most 46 unmatched in about 84k scripted acks (0.055%); the limit is
// several times that, so a hub that ignored acks altogether fails.
const maxUnmatchedShare = 0.002

// verdict is the checker's result for one pass.
type verdict struct {
	failed int // refused, NACKed or never confirmed, scripted losses excluded
	// unmatchedAcks counts alerts whose scripted IM ack the hub did not
	// match to its wait, so it fell back to email: the recipient saw
	// both, a duplicate the paper's timestamp dedup removes.
	unmatchedAcks int
	problems      []string
}

func (v *verdict) problemf(format string, args ...any) {
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// isFailed reports whether an offered alert counts as failed: refused
// or NACKed at submit, or acked and never confirmed, scripted losses
// excepted.
func isFailed(o outcome) bool {
	return o.refused || (o.acked && !o.sc.lost && o.confirms == 0)
}

// check verifies one settled pass: every acked alert confirmed exactly
// once (scripted losses never), per-user confirm order equal to
// submission order outside the outbox, scripted losses counted by the
// hub, no IM confirmation without a scripted ack, every scripted ack
// either confirming over IM or counted as unmatched (at most
// maxUnmatchedShare of them), the alerts that fell back to email equal
// to the scripted unacked ones within that limit, and the
// hub's delivered counters equal to the benchmark's audit.
func check(out []outcome, hc hubCounts) verdict {
	var v verdict
	var confirmed, scriptedLost, scriptedAck, ackedEmailed int64
	var byVia [4]int64
	lastSeq := map[int32]int64{}
	lastIdx := map[int32]int{}
	for i, o := range out {
		if isFailed(o) {
			v.failed++
		}
		switch {
		case o.acked && o.refused:
			v.problemf("alert %d: both acked and refused", i)
		case !o.acked && !o.refused:
			v.problemf("alert %d: ticket never resolved (missing ack)", i)
		case o.refused:
			if o.confirms > 0 {
				v.problemf("alert %d: refused at submit but confirmed %d times", i, o.confirms)
			}
			continue
		}
		switch {
		case o.sc.imAck && o.emailed:
			ackedEmailed++
		case hc.checkTier && !o.sc.imAck && !o.emailed:
			v.problemf("alert %d: scripted unacked but never fell back to email", i)
		}
		if o.sc.lost {
			scriptedLost++
		}
		if o.sc.imAck {
			scriptedAck++
		}
		// An unmatched ack leaves its IM counted as a confirming send
		// next to the email the hub fell back to.
		unmatched := o.sc.imAck && o.via == viaEmail
		if unmatched {
			v.unmatchedAcks++
		}
		if extra := o.confirmSends - o.confirms; !o.sc.lost && extra != 0 && !(unmatched && extra == 1) {
			v.problemf("alert %d: %d confirmations but %d confirming sends", i, o.confirms, o.confirmSends)
		}
		if o.via == viaIM && !o.sc.imAck {
			v.problemf("alert %d: confirmed over IM without an ack", i)
		}
		switch {
		case o.sc.lost:
			if o.confirms != 0 {
				v.problemf("alert %d: scripted loss confirmed %d times", i, o.confirms)
			}
			continue
		case o.confirms == 0:
			v.problemf("alert %d: acked but never confirmed (unaccounted loss)", i)
			continue
		case o.confirms > 1:
			v.problemf("alert %d: confirmed %d times (duplicate)", i, o.confirms)
		}
		confirmed++
		byVia[o.via]++
		if o.sc.outbox {
			continue
		}
		if prev, ok := lastSeq[o.user]; ok && o.seq <= prev {
			v.problemf("tenant %d: alert %d confirmed before alert %d it followed (order)", o.user, i, lastIdx[o.user])
		}
		lastSeq[o.user], lastIdx[o.user] = o.seq, i
	}
	if hc.delivered != confirmed {
		v.problemf("hub delivered %d, benchmark confirmed %d", hc.delivered, confirmed)
	}
	for via := viaIM; via <= viaSink; via++ {
		if hc.byVia[via] != byVia[via] {
			v.problemf("hub delivered %d via %s, benchmark saw %d", hc.byVia[via], viaNames[via], byVia[via])
		}
	}
	if hc.checkTier {
		if hc.lostBestEffort != scriptedLost {
			v.problemf("hub counted %d best-effort losses, %d were scripted", hc.lostBestEffort, scriptedLost)
		}
		if hc.lostGuaranteed != 0 {
			v.problemf("hub lost %d guaranteed-tier alerts", hc.lostGuaranteed)
		}
		unmatched := int64(v.unmatchedAcks)
		if im := byVia[viaIM]; im+unmatched != scriptedAck {
			v.problemf("%d alerts confirmed over IM and %d acks unmatched, %d acks scripted", im, unmatched, scriptedAck)
		}
		limit := int64(maxUnmatchedShare * float64(scriptedAck))
		if unmatched > limit {
			v.problemf("%d of %d scripted IM acks unmatched (limit %d)", unmatched, scriptedAck, limit)
		}
		// Every unacked alert falls back to email (checked above); of the
		// acked ones, only the unmatched may.
		if ackedEmailed > limit {
			v.problemf("%d alerts fell back to email despite a scripted ack (limit %d)", ackedEmailed, limit)
		}
	}
	return v
}
