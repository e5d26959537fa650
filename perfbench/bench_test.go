package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"simba/internal/metrics"
)

// cleanOutcomes is a settled pass the checker must accept: two tenants,
// three alerts each, confirmed once and in submission order over the
// sink.
func cleanOutcomes() ([]outcome, hubCounts) {
	var out []outcome
	for i := 0; i < 6; i++ {
		out = append(out, outcome{user: int32(i % 2), acked: true, confirms: 1, confirmSends: 1, seq: int64(i + 1), via: viaSink})
	}
	hc := hubCounts{delivered: 6}
	hc.byVia[viaSink] = 6
	return out, hc
}

func TestCheckAcceptsCleanPass(t *testing.T) {
	out, hc := cleanOutcomes()
	if v := check(out, hc); len(v.problems) != 0 || v.failed != 0 {
		t.Fatalf("clean pass rejected: %+v", v)
	}
}

func TestCheckRejectsPlantedFaults(t *testing.T) {
	cases := []struct {
		name  string
		plant func(out []outcome, hc *hubCounts)
		want  string
	}{
		{"duplicate", func(out []outcome, hc *hubCounts) {
			out[2].confirms, out[2].confirmSends = 2, 2
			hc.delivered++
			hc.byVia[viaSink]++
		}, "duplicate"},
		{"reordered pair", func(out []outcome, _ *hubCounts) {
			out[1].seq, out[3].seq = out[3].seq, out[1].seq // tenant 1's first two alerts swap
		}, "order"},
		{"unaccounted loss", func(out []outcome, hc *hubCounts) {
			out[4].confirms, out[4].confirmSends, out[4].via = 0, 0, viaNone
			hc.delivered--
			hc.byVia[viaSink]--
		}, "unaccounted loss"},
		{"missing ack", func(out []outcome, _ *hubCounts) {
			out[5].acked = false
		}, "missing ack"},
		{"hub counter drift", func(_ []outcome, hc *hubCounts) {
			hc.delivered++
		}, "hub delivered"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, hc := cleanOutcomes()
			c.plant(out, &hc)
			v := check(out, hc)
			if !strings.Contains(strings.Join(v.problems, "\n"), c.want) {
				t.Fatalf("planted %s not reported; problems: %q", c.name, v.problems)
			}
		})
	}
}

// scriptedOutcomes is a settled modes pass the checker must accept:
// 1000 scripted IM acks, one of them unmatched (the hub fell back to
// email, so the IM and the email both confirmed), an unacked alert
// confirmed by email, a scripted loss, and an outbox alert confirmed
// ahead of an alert submitted before it.
func scriptedOutcomes() []outcome {
	out := []outcome{
		{user: 0, acked: true, confirms: 1, confirmSends: 1, seq: 5000, via: viaIM, sc: script{imAck: true}},
		{user: 0, acked: true, emailed: true, sc: script{lost: true, refuse: refuseAll}},
		{user: 0, acked: true, confirms: 1, confirmSends: 1, seq: 1, via: viaEmail, emailed: true, sc: script{outbox: true, refuse: 4}},
		{user: 0, acked: true, confirms: 1, confirmSends: 1, seq: 5001, via: viaEmail, emailed: true},
	}
	for i := 0; i < 999; i++ {
		out = append(out, outcome{user: int32(1 + i%10), acked: true, confirms: 1, confirmSends: 1, seq: int64(2 + i), via: viaIM, sc: script{imAck: true}})
	}
	unmatched := &out[len(out)-1]
	unmatched.via, unmatched.confirmSends, unmatched.emailed = viaEmail, 2, true
	return out
}

// countsFor is what a hub that agrees with out reports, with lost
// best-effort alerts as scripted.
func countsFor(out []outcome) hubCounts {
	hc := hubCounts{checkTier: true}
	for _, o := range out {
		if o.sc.lost {
			hc.lostBestEffort++
		}
		if o.confirms == 1 {
			hc.delivered++
			hc.byVia[o.via]++
		}
	}
	return hc
}

func TestCheckScriptedOutcomes(t *testing.T) {
	out := scriptedOutcomes()
	if v := check(out, countsFor(out)); len(v.problems) != 0 || v.unmatchedAcks != 1 {
		t.Fatalf("scripted outcomes rejected: %+v", v)
	}
	cases := []struct {
		name  string
		plant func(out []outcome, hc *hubCounts)
		want  string
	}{
		{"uncounted scripted loss", func(_ []outcome, hc *hubCounts) {
			hc.lostBestEffort = 0
		}, "best-effort losses"},
		{"every ack unmatched", func(out []outcome, hc *hubCounts) {
			for i := range out {
				if out[i].sc.imAck && out[i].via == viaIM {
					out[i].via, out[i].confirmSends, out[i].emailed = viaEmail, 2, true
				}
			}
			*hc = countsFor(out)
		}, "unmatched (limit"},
		{"email sent after a matched ack", func(out []outcome, _ *hubCounts) {
			for i := 10; i < 20; i++ {
				out[i].emailed = true
			}
		}, "despite a scripted ack"},
		{"unacked alert never emailed", func(out []outcome, _ *hubCounts) {
			out[3].emailed = false
		}, "never fell back to email"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := scriptedOutcomes()
			hc := countsFor(out)
			c.plant(out, &hc)
			v := check(out, hc)
			if !strings.Contains(strings.Join(v.problems, "\n"), c.want) {
				t.Fatalf("planted %s not reported; problems: %q", c.name, v.problems)
			}
		})
	}
}

func TestGenInputsDeterministic(t *testing.T) {
	w, _ := workloadByName("modes-fallback")
	a, b := genInputs(w, 7, 4096), genInputs(w, 7, 4096)
	c := genInputs(w, 8, 4096)
	same := func(x, y *inputs) bool {
		for i := range x.user {
			if x.user[i] != y.user[i] || x.scripts[i] != y.scripts[i] || x.alerts[i].ID != y.alerts[i].ID {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("equal seeds gave different inputs")
	}
	if same(a, c) {
		t.Fatal("different seeds gave equal inputs")
	}
}

func TestQuantiles(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
	h := metrics.HistogramSnapshot{Count: 4, Min: 1, Max: 8, Buckets: []metrics.HistogramBucket{{Le: 2, Count: 2}, {Le: 8, Count: 2}}}
	if got := histQuantile(h, 0.5); got != 2 {
		t.Fatalf("histogram median = %v, want 2", got)
	}
	if got := histQuantile(h, 0.99); math.Abs(got-7.92) > 1e-9 {
		t.Fatalf("histogram p99 = %v, want 7.92 (interpolated in (4, 8])", got)
	}
}

// tiny shrinks a workload so a whole run takes a couple of seconds.
func tiny(w workload) workload {
	w.Rate, w.Tenants = 2000, 64
	if w.Backlog > 0 {
		w.Backlog = 3200
	}
	return w
}

// TestTinyRunsEmitEveryMetric runs each workload at tiny scale, with
// and without tracing, and checks the result line: correct, every
// contract metric present with its unit, nothing else.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hub for several seconds")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := tiny(w), traced
			t.Run(w.Name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				res, err := runWorkload(w, 3, 0.5, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				res.print(&buf, w, 3, host{})
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var got struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !got.Correct || got.Attempted == 0 || got.Failed != 0 {
					t.Fatalf("run not clean: %s", buf.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(got.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := got.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: present %v unit %q, want unit %q", d.Name, ok, m.Unit, d.Unit)
					}
				}
			})
		}
	}
}
