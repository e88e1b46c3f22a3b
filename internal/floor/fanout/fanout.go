// Package fanout distributes one publisher's events to many subscribers
// without ever letting a subscriber slow the publisher down. Each
// subscriber owns a fixed-capacity ring buffer: Publish appends to every
// ring and returns immediately, and a ring that is full drops its
// *oldest* buffered event to make room (the lag policy — a slow consumer
// falls behind and loses the events it was never going to catch up on,
// keeping what it will read as fresh as possible). Every drop is
// counted, and Next reports the number of events lost immediately before
// the event it returns, so a consumer always knows its view has a gap
// and can resynchronise (the metric-plane daemon replaces a gap with a
// fresh full snapshot).
//
// The publisher side (Publish, Close, a Sub's Push) and the consumer
// side (Next, TryNext) may run on different goroutines; a Hub serves any
// number of concurrent subscribers. Lock order is hub before subscriber,
// and no callback runs under either lock.
package fanout

import (
	"context"
	"errors"
	"sync"
)

// ErrClosed is returned by Next once a subscription has delivered every
// buffered event of a closed hub (or of a subscription closed locally)
// and no error was supplied to Close.
var ErrClosed = errors.New("fanout: closed")

// DefaultCapacity is the ring capacity used when Subscribe is given a
// non-positive one.
const DefaultCapacity = 64

// Hub fans events out to its current subscribers.
type Hub[T any] struct {
	mu     sync.Mutex
	subs   map[*Sub[T]]struct{} // guarded by mu
	closed bool                 // guarded by mu
	err    error                // guarded by mu
}

// NewHub returns an empty hub.
func NewHub[T any]() *Hub[T] {
	return &Hub[T]{subs: make(map[*Sub[T]]struct{})}
}

// Subscribe attaches a new subscriber with its own ring of the given
// capacity (DefaultCapacity when capacity <= 0). Subscribing to a closed
// hub yields a subscription that reports the close immediately.
func (h *Hub[T]) Subscribe(capacity int) *Sub[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	s := &Sub[T]{
		buf:    make([]T, capacity),
		notify: make(chan struct{}, 1),
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		s.closed, s.err = true, h.err
		return s
	}
	s.hub = h
	h.subs[s] = struct{}{}
	return s
}

// Publish appends ev to every subscriber's ring, dropping the oldest
// buffered event of any ring that is full. It never blocks on a
// consumer.
func (h *Hub[T]) Publish(ev T) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		s.push(ev)
	}
}

// Len reports the number of live subscribers.
func (h *Hub[T]) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Close ends the hub: every subscriber drains its remaining buffered
// events and then receives err from Next (ErrClosed when err is nil).
// Close is idempotent; only the first call's error is kept.
func (h *Hub[T]) Close(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed, h.err = true, err
	for s := range h.subs {
		s.close(err)
		delete(h.subs, s)
	}
}

// Sub is one subscriber's view of a hub: a ring of pending events plus
// the count of events dropped since the consumer last read.
type Sub[T any] struct {
	hub    *Hub[T]       // nil once detached (or when born on a closed hub)
	notify chan struct{} // capacity 1: publisher kicks a blocked Next

	mu      sync.Mutex
	buf     []T    // ring storage, guarded by mu
	head    int    // index of the oldest buffered event, guarded by mu
	n       int    // buffered event count, guarded by mu
	dropped uint64 // events lost since the last successful read, guarded by mu
	closed  bool   // guarded by mu
	err     error  // close reason, guarded by mu
}

// push appends ev, evicting the oldest event when the ring is full.
// Caller holds the hub lock (or owns the sub exclusively); the sub lock
// is taken here.
func (s *Sub[T]) push(ev T) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) {
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
	}
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Push delivers ev to this subscriber only — the publisher-side hook a
// runtime uses to hand one subscriber a bootstrap snapshot or a resync
// without disturbing the others. Same overflow policy as Publish.
func (s *Sub[T]) Push(ev T) { s.push(ev) }

// close marks the subscription finished. Buffered events stay readable.
func (s *Sub[T]) close(err error) {
	s.mu.Lock()
	if !s.closed {
		s.closed, s.err = true, err
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Close detaches the subscriber from the hub. Idempotent; pending
// buffered events remain readable and then Next reports ErrClosed.
func (s *Sub[T]) Close() {
	if h := s.hub; h != nil {
		h.mu.Lock()
		delete(h.subs, s)
		h.mu.Unlock()
	}
	s.close(nil)
}

// TryNext returns the next buffered event without blocking. dropped is
// the number of events lost immediately before ev — a non-zero value
// means the consumer's view has a gap ending at ev.
func (s *Sub[T]) TryNext() (ev T, dropped uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		var zero T
		return zero, 0, false
	}
	return s.pop(), s.take(), true
}

// Next returns the next event, blocking until one is published, ctx is
// done, or the subscription is closed. After a close, buffered events
// are still delivered in order; once drained, Next returns the close
// error (ErrClosed when the close carried none).
func (s *Sub[T]) Next(ctx context.Context) (ev T, dropped uint64, err error) {
	for {
		s.mu.Lock()
		if s.n > 0 {
			ev, dropped = s.pop(), s.take()
			s.mu.Unlock()
			return ev, dropped, nil
		}
		if s.closed {
			err = s.err
			s.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			var zero T
			return zero, 0, err
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			var zero T
			return zero, 0, ctx.Err()
		case <-s.notify:
		}
	}
}

// pop removes and returns the oldest buffered event. Caller holds mu.
func (s *Sub[T]) pop() T {
	ev := s.buf[s.head]
	var zero T
	s.buf[s.head] = zero // release the reference for GC
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	return ev
}

// take returns and resets the dropped counter. Caller holds mu.
func (s *Sub[T]) take() uint64 {
	d := s.dropped
	s.dropped = 0
	return d
}
