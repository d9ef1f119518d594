package kvstore

import (
	"strings"
	"testing"
	"time"
)

// TestTimingValidate: the derived timing passes at any TTL, and a timing
// that breaks exactly one relation is rejected with an error naming that
// relation and no other.
func TestTimingValidate(t *testing.T) {
	for _, ttl := range []time.Duration{300 * time.Millisecond, time.Second, DefaultLeaseTTL} {
		if err := TimingFor(ttl).Validate(); err != nil {
			t.Errorf("TimingFor(%v): %v", ttl, err)
		}
	}
	for _, tc := range []struct {
		rule   string
		mutate func(*Timing)
	}{
		{"positive values", func(tm *Timing) { tm.EpochPoll = 0 }},
		{"I/O floor", func(tm *Timing) { *tm = TimingFor(90 * time.Millisecond) }},
		{"renew interval", func(tm *Timing) { tm.Renew = tm.TTL / 2 }},
		{"renewal budget", func(tm *Timing) { tm.IOTimeout = tm.Renew }},
		{"backoff bounds", func(tm *Timing) { tm.BackoffMax = tm.BackoffMin / 2 }},
		{"ack timeout", func(tm *Timing) { tm.AckTimeout = tm.IOTimeout }},
		{"ack over heartbeat", func(tm *Timing) { tm.AckTimeout = tm.Heartbeat }},
		{"sync timeout", func(tm *Timing) { tm.SyncTimeout = tm.Heartbeat }},
		{"failover timeout", func(tm *Timing) { tm.FailoverTimeout = 5 * tm.Heartbeat }},
	} {
		tm := TimingFor(time.Second)
		tc.mutate(&tm)
		err := tm.Validate()
		if err == nil {
			t.Errorf("%s: broken timing %+v accepted", tc.rule, tm)
			continue
		}
		var broken []string
		for _, line := range strings.Split(err.Error(), "\n") {
			if strings.Contains(line, "breaks") {
				broken = append(broken, line)
			}
		}
		if len(broken) != 1 || !strings.Contains(broken[0], `"`+tc.rule) {
			t.Errorf("%s: Validate = %v, want exactly that relation named", tc.rule, err)
		}
	}
}

// TestStoreCallBudget pins the budget's arithmetic at TTL 3 s: two
// attempts of a 50 ms dial and a 300 ms I/O timeout, plus the 50 ms
// backoff at its +25% jitter ceiling.
func TestStoreCallBudget(t *testing.T) {
	if got, want := TimingFor(DefaultLeaseTTL).storeCallBudget(), 2*350*time.Millisecond+62500*time.Microsecond; got != want {
		t.Fatalf("budget = %v, want %v", got, want)
	}
}
