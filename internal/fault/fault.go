// Package fault is the error-injection layer behind the chaos tests: a
// registry of named injection points threaded through the durability and
// detection paths (checkpoint writes, model refits, the checkpoint
// timer) so tests can force the failures that production will eventually
// see — a disk filling up mid-snapshot, a write torn halfway through, a
// refit that takes longer than a drain, a clock that ticks when the test
// says so — without monkey-patching or sleeping.
//
// The zero cost of the healthy path is the design constraint: every hook is
// a method on a *Injector that is nil in production, and every method is
// nil-receiver safe, so an unarmed point costs one pointer comparison.
//
//	var inj *fault.Injector            // nil in production
//	if err := inj.Fire("checkpoint.write"); err != nil { ... } // no-op
//
//	inj := fault.NewInjector()         // in a test
//	inj.Arm("checkpoint.write", fault.Fault{Err: fault.ErrDiskFull})
package fault

import (
	"errors"
	"io"
	"sync"
	"time"
)

// ErrDiskFull is the canonical injected storage failure — what a checkpoint
// write sees when the disk fills mid-snapshot.
var ErrDiskFull = errors.New("fault: injected disk full")

// Fault configures one armed injection point.
type Fault struct {
	// Err is returned by Fire (and by Writer writes) once the fault
	// triggers. A zero Err makes Fire succeed (useful to arm only Delay).
	Err error
	// Skip is how many Fires succeed before the fault starts triggering:
	// Skip 0 fails immediately, Skip 2 lets two calls through. Writer
	// budgets (below) are independent of Skip.
	Skip int
	// Count bounds how many times the fault triggers before the point
	// disarms itself (0 = forever). A Count of 1 injects exactly one
	// failure and then heals — the transient-error shape.
	Count int
	// Delay is slept by Delay() — and by Fire before returning — while the
	// point is armed: the slow-refit / slow-disk injection.
	Delay time.Duration
	// WriteBudget, when >= 0, makes Writer pass exactly that many bytes
	// through to the underlying writer and then fail every subsequent
	// Write with Err — a write torn mid-stream, partial prefix on disk.
	// Negative (the zero value via Arm, which defaults it) means writes
	// are governed by Fire semantics instead.
	WriteBudget int64
}

// point is the mutable state of one armed injection point.
type point struct {
	f       Fault
	fires   int // successful Fires consumed against Skip
	trips   int // times the fault actually triggered
	written int64
}

// Injector is a set of armed fault points keyed by name. The zero value
// and the nil pointer both inject nothing; NewInjector returns one ready
// to Arm. All methods are safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	points map[string]*point
}

// NewInjector returns an empty injector.
func NewInjector() *Injector { return &Injector{} }

// Arm configures fault injection at a named point, replacing any previous
// arming. A negative WriteBudget is normalized to "no budget".
func (in *Injector) Arm(name string, f Fault) {
	if f.WriteBudget == 0 {
		f.WriteBudget = -1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.points == nil {
		in.points = map[string]*point{}
	}
	in.points[name] = &point{f: f}
}

// ArmTornWrite is the common torn-write arming: the point's Writer passes n
// bytes and then fails with ErrDiskFull.
func (in *Injector) ArmTornWrite(name string, n int64) {
	in.Arm(name, Fault{Err: ErrDiskFull, WriteBudget: n})
	if n == 0 {
		// WriteBudget 0 is meaningful here (tear before the first byte);
		// Arm normalized it away, so restore it.
		in.mu.Lock()
		in.points[name].f.WriteBudget = 0
		in.mu.Unlock()
	}
}

// Disarm removes a point; subsequent Fires succeed.
func (in *Injector) Disarm(name string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	delete(in.points, name)
	in.mu.Unlock()
}

// Trips reports how many times the named point has actually injected a
// failure — the assertion hook for "the fault fired and was survived".
func (in *Injector) Trips(name string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if p := in.points[name]; p != nil {
		return p.trips
	}
	return 0
}

// Fire consults the named point: nil when unarmed, still skipping, armed
// with no Err, or exhausted; the configured Err (after the configured
// Delay) when the fault triggers. Safe on a nil receiver.
func (in *Injector) Fire(name string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	p := in.points[name]
	if p == nil {
		in.mu.Unlock()
		return nil
	}
	d := p.f.Delay
	var err error
	if p.fires < p.f.Skip {
		p.fires++
	} else if p.f.Err != nil {
		err = p.f.Err
		p.trips++
		if p.f.Count > 0 && p.trips >= p.f.Count {
			delete(in.points, name)
		}
	}
	in.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return err
}

// Delay sleeps the named point's configured Delay when armed — the
// pure-latency injection (slow refit, slow disk) with no error. Safe on a
// nil receiver.
func (in *Injector) Delay(name string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	var d time.Duration
	if p := in.points[name]; p != nil {
		d = p.f.Delay
		p.trips++
	}
	in.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// Writer wraps w with the named point's write faults. With a WriteBudget
// armed, exactly that many bytes pass through before every subsequent
// Write fails with the point's Err (the torn-write shape: a partial prefix
// lands, the rest never does). Otherwise each Write consults Fire. Safe on
// a nil receiver (returns w unchanged); wrapping is cheap either way.
func (in *Injector) Writer(name string, w io.Writer) io.Writer {
	if in == nil {
		return w
	}
	return &faultWriter{in: in, name: name, w: w}
}

type faultWriter struct {
	in   *Injector
	name string
	w    io.Writer
}

func (fw *faultWriter) Write(b []byte) (int, error) {
	fw.in.mu.Lock()
	p := fw.in.points[fw.name]
	if p != nil && p.f.WriteBudget >= 0 {
		remaining := p.f.WriteBudget - p.written
		if remaining <= 0 {
			p.trips++
			err := p.f.Err
			fw.in.mu.Unlock()
			return 0, err
		}
		if int64(len(b)) > remaining {
			// Tear mid-buffer: the allowed prefix reaches the disk, the
			// Write still reports failure — exactly what a full filesystem
			// does.
			p.written += remaining
			p.trips++
			err := p.f.Err
			fw.in.mu.Unlock()
			n, werr := fw.w.Write(b[:remaining])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		p.written += int64(len(b))
		fw.in.mu.Unlock()
		return fw.w.Write(b)
	}
	fw.in.mu.Unlock()
	if err := fw.in.Fire(fw.name); err != nil {
		return 0, err
	}
	return fw.w.Write(b)
}

// Clock abstracts the periodic-checkpoint timer so chaos tests can tick it
// deterministically instead of sleeping. The nil *ManualClock-free
// production path uses WallClock.
type Clock interface {
	// Ticker returns a channel delivering ticks at roughly every d, and a
	// stop function releasing its resources.
	Ticker(d time.Duration) (<-chan time.Time, func())
}

// WallClock is the production Clock: a real time.Ticker.
type WallClock struct{}

// Ticker returns a real time.Ticker channel.
func (WallClock) Ticker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// ManualClock is the test Clock: ticks fire only when Tick is called, so a
// test drives "the timer went off" as a plain synchronous event.
type ManualClock struct {
	mu sync.Mutex
	ch chan time.Time
}

// NewManualClock returns a clock whose ticker never fires on its own.
func NewManualClock() *ManualClock {
	return &ManualClock{ch: make(chan time.Time, 1)}
}

// Ticker ignores the interval and returns the manually driven channel.
func (c *ManualClock) Ticker(time.Duration) (<-chan time.Time, func()) {
	return c.ch, func() {}
}

// Tick fires one tick, blocking until the consumer picks it up or buffer
// space frees.
func (c *ManualClock) Tick() { c.ch <- time.Time{} }
