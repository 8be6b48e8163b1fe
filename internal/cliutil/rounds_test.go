package cliutil

import (
	"sync"
	"testing"
	"time"

	"ftcms/internal/units"
)

// fakeClock is an injected pacer clock: SleepUntil jumps straight to
// the deadline plus the next scripted lateness, and reports a stop on
// the first call made at or after end. Nothing really sleeps.
type fakeClock struct {
	now, end time.Time
	late     []time.Duration // per-sleep overshoot, consumed in order
}

func (f *fakeClock) Now() time.Time { return f.now }

func (f *fakeClock) SleepUntil(t time.Time, _ <-chan struct{}) bool {
	if !f.now.Before(f.end) {
		return false
	}
	if t.After(f.now) {
		f.now = t
	}
	if len(f.late) > 0 {
		f.now = f.now.Add(f.late[0])
		f.late = f.late[1:]
	}
	return true
}

// pace runs a pacer on the fake clock to completion and returns the
// clock time of every tick, in order; each tick also costs cost.
func pace(t *testing.T, iv time.Duration, f *fakeClock, cost time.Duration) (c *RoundClock, at []time.Time) {
	t.Helper()
	c = NewRoundClock(iv, &sync.Mutex{})
	c.clk = f
	start := f.now
	c.run(func() {
		at = append(at, f.now)
		f.now = f.now.Add(cost)
	})
	// Never faster than nominal: the k-th tick runs at or after round
	// k's deadline, whatever slipped before it.
	for k, ts := range at {
		if dl := start.Add(time.Duration(k+1) * iv); ts.Before(dl) {
			t.Fatalf("tick %d ran at %v, before its deadline %v", k+1, ts.Sub(start), dl.Sub(start))
		}
	}
	return c, at
}

func TestPacerRunsFloorElapsedRounds(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// An interval that does not divide a millisecond, irregular
	// lateness below the catch-up bound, and ticks of real cost.
	iv := 3*time.Millisecond + 7*time.Microsecond
	var late []time.Duration
	for i := 0; i < 400; i++ {
		late = append(late, time.Duration(i*7919%(CatchUp*int(iv))))
	}
	f := &fakeClock{now: t0, end: t0.Add(time.Second), late: late}
	c, at := pace(t, iv, f, 40*time.Microsecond)
	if want := int(f.now.Sub(t0) / iv); len(at) != want {
		t.Fatalf("ran %d rounds in %v, want floor(elapsed/interval) = %d", len(at), f.now.Sub(t0), want)
	}
	if c.Slipped() != 0 {
		t.Fatalf("slipped %d rounds with every wake-up within the bound", c.Slipped())
	}
}

// TestPacerLateWakeRunsEachMissedRound: one wake-up 5.5 rounds late
// runs the five missed rounds and its own, once each, back to back.
func TestPacerLateWakeRunsEachMissedRound(t *testing.T) {
	t0 := time.Unix(1000, 0)
	iv := time.Millisecond
	f := &fakeClock{now: t0, end: t0.Add(20 * iv),
		late: []time.Duration{0, 0, 0, 0, 11 * iv / 2}}
	c, at := pace(t, iv, f, 0)
	if c.Slipped() != 0 {
		t.Fatalf("slipped %d rounds on a backlog of 6", c.Slipped())
	}
	if want := int(f.now.Sub(t0) / iv); len(at) != want {
		t.Fatalf("ran %d rounds, want %d", len(at), want)
	}
	// Rounds 1-4 on time, then rounds 5-10 at the one late wake-up.
	wake := t0.Add(5*iv + 11*iv/2)
	for k := 4; k < 10; k++ {
		if !at[k].Equal(wake) {
			t.Fatalf("round %d ran at %v, want the late wake-up at %v", k+1, at[k].Sub(t0), wake.Sub(t0))
		}
	}
	if !at[10].Equal(t0.Add(11 * iv)) {
		t.Fatalf("round 11 ran at %v, want its own deadline", at[10].Sub(t0))
	}
}

// TestPacerSlipsBacklogBeyondCatchUp: a wake-up CatchUp+12.5 rounds
// late owes CatchUp+13 rounds; CatchUp of them run and the other 13
// are counted as slipped.
func TestPacerSlipsBacklogBeyondCatchUp(t *testing.T) {
	t0 := time.Unix(1000, 0)
	iv := time.Millisecond
	lateBy := time.Duration(CatchUp)*iv + 25*iv/2
	f := &fakeClock{now: t0, end: t0.Add(200 * iv),
		late: []time.Duration{0, 0, lateBy}}
	c, at := pace(t, iv, f, 0)
	if c.Slipped() != 13 {
		t.Fatalf("slipped %d rounds, want 13", c.Slipped())
	}
	if want := int(f.now.Sub(t0)/iv) - int(c.Slipped()); len(at) != want {
		t.Fatalf("ran %d rounds, want %d (elapsed rounds less slipped)", len(at), want)
	}
	wake := t0.Add(3*iv + lateBy)
	n := 0
	for _, ts := range at {
		if ts.Equal(wake) {
			n++
		}
	}
	if n != CatchUp {
		t.Fatalf("the late wake-up ran %d rounds, want CatchUp = %d", n, CatchUp)
	}
}

// TestPacerOverloadSlipsButNeverRunsEarly: ticks that cost more than a
// round cannot keep pace; the pacer sheds the excess as slips and never
// runs ahead of the deadlines (checked in pace).
func TestPacerOverloadSlipsButNeverRunsEarly(t *testing.T) {
	t0 := time.Unix(1000, 0)
	iv := time.Millisecond
	f := &fakeClock{now: t0, end: t0.Add(500 * iv)}
	c, at := pace(t, iv, f, 3*iv/2)
	if c.Slipped() == 0 {
		t.Fatal("an overloaded pacer slipped nothing")
	}
	if due := int64(f.now.Sub(t0) / iv); int64(len(at))+c.Slipped() > due {
		t.Fatalf("ran %d and slipped %d rounds, more than the %d due", len(at), c.Slipped(), due)
	}
}

// TestStopWakesWaiters: Stop releases a handler blocked in Wait, and
// Wait refuses to block once the clock has stopped.
func TestStopWakesWaiters(t *testing.T) {
	var mu sync.Mutex
	c := NewRoundClock(time.Millisecond, &mu)
	woke := make(chan bool)
	go func() {
		mu.Lock()
		defer mu.Unlock()
		woke <- c.Wait()
	}()
	for {
		mu.Lock()
		n := c.Waiters()
		mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	if <-woke {
		t.Fatal("Wait reported a round after Stop")
	}
	mu.Lock()
	defer mu.Unlock()
	if c.Wait() {
		t.Fatal("Wait blocked and reported a round on a stopped clock")
	}
}

func TestPacedInterval(t *testing.T) {
	for _, tc := range []struct {
		round units.Duration
		speed float64
		want  time.Duration
	}{
		{0.5, 100, 5 * time.Millisecond},
		{0.5, 1, 500 * time.Millisecond},
		{0.2, 1000, time.Millisecond}, // 0.2 ms, floored
	} {
		if got := PacedInterval(tc.round, tc.speed); got != tc.want {
			t.Errorf("PacedInterval(%v, %v) = %v, want %v", tc.round, tc.speed, got, tc.want)
		}
	}
}
