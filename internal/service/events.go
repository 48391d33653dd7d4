package service

import (
	"sync"

	"repro/internal/telemetry"
)

// eventLog is a bounded, seekable telemetry event log shared between
// one running job (the writer, on the simulation hot path) and any
// number of HTTP streaming subscribers (readers).
//
// The writer appends under a mutex into a ring that grows with the
// events actually emitted up to its capacity, then wraps; it never
// blocks on readers. A subscriber that falls more than capacity events
// behind skips ahead and is told how many events it missed, so a slow
// or stalled client can never wedge or slow a simulation beyond the
// cost of the mutex. Readers block on a condition variable until new
// events arrive or the log closes.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []telemetry.Event
	window uint64 // capacity: the ring wraps once it holds this many
	seq    uint64 // total events ever appended
	closed bool
}

// newEventLog creates a log retaining the last capacity events. The
// ring starts empty: a queued or short job holds only what it emitted.
func newEventLog(capacity int) *eventLog {
	l := &eventLog{window: uint64(capacity)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Emit implements telemetry.Sink.
func (l *eventLog) Emit(ev telemetry.Event) {
	l.mu.Lock()
	if l.seq < l.window {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.seq%l.window] = ev
	}
	l.seq++
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close marks the log complete (the job finished) and wakes readers.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// wake pulses waiting readers so they can re-check an external
// condition (e.g. a disconnected HTTP client).
func (l *eventLog) wake() { l.cond.Broadcast() }

// next copies the events from sequence number from onward into buf,
// blocking while the log is open and has nothing new. It returns the
// batch, the sequence to resume from, the number of events skipped
// because the reader fell behind the ring, and whether the log is
// closed (a closed log with an empty batch means the stream is done).
// interrupted reports an external wake with nothing to deliver; the
// caller should re-check its own liveness condition.
func (l *eventLog) next(from uint64, buf []telemetry.Event) (batch []telemetry.Event, resume uint64, skipped uint64, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.seq == from && !l.closed {
		l.cond.Wait()
		if l.seq == from && !l.closed {
			// Spurious or external wake: hand control back so the caller
			// can notice a dead client instead of blocking forever.
			return buf[:0], from, 0, false
		}
	}
	start := from
	if l.seq > l.window && start < l.seq-l.window {
		skipped = l.seq - l.window - start
		start = l.seq - l.window
	}
	n := l.seq - start
	if max := uint64(cap(buf)); n > max {
		n = max
	}
	batch = buf[:0]
	for i := uint64(0); i < n; i++ {
		s := start + i
		batch = append(batch, l.ring[s%l.window])
	}
	return batch, start + n, skipped, l.closed
}
