package cliutil

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ftcms/internal/core"
	"ftcms/internal/units"
)

// CatchUp is the most overdue rounds the pacer runs back to back after
// a late wake-up. A shorter stall (a descheduled vCPU, a GC pause, a
// coarse timer) is made good in full, so the daemon keeps its nominal
// round rate; rounds beyond it are dropped and counted as slipped, so a
// long stop does not come back as an unbounded burst that holds the
// daemon's mutex round after round. 32 rounds is 32 ms at the 1 ms
// interval floor, above the longest timer wake-up delay measured on a
// 2-vCPU VM with 8% steal (22 ms in 20 000 wake-ups); with a bound of 8
// an idle daemon there slipped about 1.5 rounds a second. It is a
// constant, not a flag: it bounds a transient, not a workload.
const CatchUp = 32

// AdmitWait is how long a PLAY refused by admission control waits on
// the pending list, retrying each round, before it is refused for good.
const AdmitWait = 10 * time.Second

// PacedInterval is the wall-clock round interval of a daemon whose
// rounds last round in model time and run speed times faster than real
// playback, floored at 1 ms.
func PacedInterval(round units.Duration, speed float64) time.Duration {
	iv := time.Duration(round.Seconds() / speed * float64(time.Second))
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	return iv
}

// clock is the pacer's view of time, injectable for tests.
type clock interface {
	Now() time.Time
	// SleepUntil blocks until t, or until stop is closed; it reports
	// false when it returned because of stop.
	SleepUntil(t time.Time, stop <-chan struct{}) bool
}

// wallClock is the real clock. Its timer is reset only after a fire has
// been received, so no stale tick is ever read.
type wallClock struct{ timer *time.Timer }

func (*wallClock) Now() time.Time { return time.Now() }

func (w *wallClock) SleepUntil(t time.Time, stop <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	select {
	case <-w.timer.C:
		return true
	case <-stop:
		w.timer.Stop()
		return false
	}
}

// RoundClock is a daemon's round clock. Its pacer runs round r at
// start + r·interval, never earlier; after a late wake-up it runs every
// overdue round, up to CatchUp of them, and counts the rest as slipped.
// The daemon's tick ends each round with Broadcast under the daemon's
// mutex, and connection handlers block in Wait under that same mutex
// until a round has run — for the next block of a stream, or for a free
// admission slot — instead of polling.
type RoundClock struct {
	interval time.Duration
	clk      clock
	cond     sync.Cond
	stopped  bool // guarded by cond.L
	waiters  int  // guarded by cond.L
	slipped  atomic.Int64
	stop     chan struct{}
	done     chan struct{}
	halt     sync.Once
}

// NewRoundClock returns a clock whose pacer waits for Start and whose
// waiters sleep under mu, the daemon's mutex.
func NewRoundClock(interval time.Duration, mu sync.Locker) *RoundClock {
	c := &RoundClock{interval: interval, clk: &wallClock{}, stop: make(chan struct{})}
	c.cond.L = mu
	return c
}

// Start runs the pacer in its own goroutine, calling tick once per
// round. tick takes the daemon's mutex itself and ends with Broadcast.
// Call Start at most once.
func (c *RoundClock) Start(tick func()) {
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		c.run(tick)
	}()
}

// run paces rounds until stop is closed. next is the next round to run;
// every round below it has run or slipped.
func (c *RoundClock) run(tick func()) {
	start := c.clk.Now()
	next := int64(1)
	for {
		due := int64(c.clk.Now().Sub(start) / c.interval)
		if backlog := due - next + 1; backlog > CatchUp {
			c.slipped.Add(backlog - CatchUp)
			next += backlog - CatchUp
		}
		for ; next <= due; next++ {
			tick()
		}
		if !c.clk.SleepUntil(start.Add(time.Duration(next)*c.interval), c.stop) {
			return
		}
	}
}

// Stop halts the pacer, if it was started, and wakes every waiter for
// good: Wait returns false from then on. The caller must not hold the
// daemon's mutex. Stop is idempotent.
func (c *RoundClock) Stop() {
	c.halt.Do(func() {
		close(c.stop)
		if c.done != nil {
			<-c.done
		}
		c.cond.L.Lock()
		c.stopped = true
		c.cond.Broadcast()
		c.cond.L.Unlock()
	})
}

// Broadcast marks the end of a round, waking every handler in Wait.
// The caller holds the daemon's mutex.
func (c *RoundClock) Broadcast() { c.cond.Broadcast() }

// Wait blocks until the end of the next round. The caller holds the
// daemon's mutex, which Wait releases while it sleeps, as sync.Cond
// does. It reports false once the clock has stopped: no round will
// come.
func (c *RoundClock) Wait() bool {
	if c.stopped {
		return false
	}
	c.waiters++
	c.cond.Wait()
	c.waiters--
	return !c.stopped
}

// Waiters reports how many handlers are blocked in Wait. The caller
// holds the daemon's mutex.
func (c *RoundClock) Waiters() int { return c.waiters }

// Slipped reports how many rounds the pacer dropped because they fell
// more than CatchUp rounds behind their deadline.
func (c *RoundClock) Slipped() int64 { return c.slipped.Load() }

// Stream is the read side of a PLAY session; *core.Stream and
// *cluster.Stream implement it.
type Stream interface {
	Read(p []byte) (int, error)
	Close() error
}

// playBufs recycles PLAY read buffers across sessions.
var playBufs = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// Admit opens a stream with open, called under the daemon's mutex. A
// refusal by admission control joins the paper's pending list: the
// request retries at the end of each round until it is admitted, AdmitWait
// passes, or the clock stops. The caller must not hold the mutex.
func Admit[S Stream](c *RoundClock, open func() (S, error)) (S, error) {
	deadline := time.Now().Add(AdmitWait)
	c.cond.L.Lock()
	defer c.cond.L.Unlock()
	for {
		st, err := open()
		if err == nil || !errors.Is(err, core.ErrAdmission) || time.Now().After(deadline) || !c.Wait() {
			return st, err
		}
	}
}

// Play copies st to the client through write as rounds deliver it,
// waiting on the clock whenever the next block has not arrived yet
// (which also covers a stream parked awaiting failover). It returns the
// error that ended the stream when the server lost it (wrapping
// core.ErrStreamLost), so the daemon can tell the client why, and nil
// when it ended any other way: EOF, a failed write, or a stopped clock.
// The caller must not hold the daemon's mutex.
func (c *RoundClock) Play(st Stream, write func([]byte) error) error {
	bp := playBufs.Get().(*[]byte)
	defer playBufs.Put(bp)
	buf := *bp
	mu := c.cond.L
	mu.Lock()
	defer mu.Unlock()
	for {
		n, err := st.Read(buf)
		if n > 0 {
			mu.Unlock()
			werr := write(buf[:n])
			mu.Lock()
			if werr != nil {
				st.Close()
				return nil
			}
		}
		switch {
		case err == nil:
		case errors.Is(err, core.ErrNoData):
			// Read again before waiting: a round may have delivered
			// while the mutex was released for the write.
			if n == 0 && !c.Wait() {
				st.Close()
				return nil
			}
		case errors.Is(err, core.ErrStreamLost):
			return err
		default:
			return nil // EOF or closed
		}
	}
}
