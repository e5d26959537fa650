package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"simba/internal/alert"
	"simba/internal/hub"
)

// script is the recipient's scripted behaviour for one alert on a
// modes workload, fixed before timing starts.
type script struct {
	// imAck: the recipient acks the alert's first IM.
	imAck bool
	// refuse is how many email sends the recipient refuses before one
	// is accepted; refuseAll refuses every one.
	refuse int32
	// outbox: a guaranteed-tier alert scripted through the outbox.
	// lost: a best-effort alert scripted to be lost.
	outbox, lost bool
}

const refuseAll = -1

// inputs are everything the hub is offered in one pass, generated from
// the seed before timing. The program sees only the alerts and the
// recipient behaviour they script.
type inputs struct {
	tenants    []string
	guaranteed []bool // per tenant
	user       []int32
	alerts     []alert.Alert
	subs       []hub.Submission
	scripts    []script // nil on flat workloads
}

// alertCreated anchors alert creation times; a fixed instant keeps the
// generated inputs (and so the WAL bytes) identical for equal seeds.
var alertCreated = time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)

// genInputs builds n alerts (a multiple of the burst size) for w.
// Equal seeds give equal inputs.
func genInputs(w workload, seed int64, n int) *inputs {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x51ba))
	in := &inputs{
		tenants:    make([]string, w.Tenants),
		guaranteed: make([]bool, w.Tenants),
		user:       make([]int32, n),
		alerts:     make([]alert.Alert, n),
		subs:       make([]hub.Submission, n),
	}
	for i := range in.tenants {
		in.tenants[i] = "tenant-" + strconv.Itoa(i)
		in.guaranteed[i] = w.Modes && rng.Float64() < w.GuaranteedFrac
	}
	keywords := []string{"stocks"}
	for i := 0; i < n; i++ {
		u := int32(rng.IntN(w.Tenants))
		in.user[i] = u
		in.alerts[i] = alert.Alert{
			ID:       strconv.Itoa(i),
			Source:   "portal",
			Keywords: keywords,
			Subject:  "quote update",
			Body:     "ACME crossed its limit",
			Urgency:  alert.UrgencyNormal,
			Created:  alertCreated.Add(time.Duration(i)),
		}
		in.subs[i] = hub.Submission{User: in.tenants[u], Alert: &in.alerts[i]}
	}
	if !w.Modes {
		return in
	}
	in.scripts = make([]script, n)
	unacked := 1 - w.AckFrac
	for i := range in.scripts {
		s := &in.scripts[i]
		s.imAck = rng.Float64() < w.AckFrac
		if s.imAck {
			continue
		}
		// Outbox-bound and lost alerts are drawn among the unacked ones
		// (an acked IM would confirm them), scaled so that OutboxFrac of
		// guaranteed alerts and LostFrac of best-effort alerts are hit.
		r := rng.Float64()
		if in.guaranteed[in.user[i]] {
			if r < w.OutboxFrac/unacked {
				s.outbox = true
				s.refuse = int32(hub.DefaultDeliveryMaxAttempts)
			}
		} else if r < w.LostFrac/unacked {
			s.lost = true
			s.refuse = refuseAll
		}
	}
	return in
}

// alertIndex recovers an alert's input index from its ID.
func alertIndex(id string) (int, error) {
	i, err := strconv.Atoi(id)
	if err != nil {
		return 0, fmt.Errorf("alert ID %q is not a benchmark index", id)
	}
	return i, nil
}

// keyIndex recovers an alert's input index from its dedup key
// ("source|id|created"), as carried by core.Report.AlertKey.
func keyIndex(key string) (int, error) {
	start := -1
	for i := 0; i < len(key); i++ {
		if key[i] != '|' {
			continue
		}
		if start < 0 {
			start = i + 1
			continue
		}
		return alertIndex(key[start:i])
	}
	return 0, fmt.Errorf("dedup key %q has no ID field", key)
}
