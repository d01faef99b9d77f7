package api

import (
	"context"
	"errors"
	"net/http"
	"time"
)

// Limiter is the admission-control semaphore every serving layer puts in
// front of its work: at most maxInFlight requests hold a slot at once, a
// request beyond the limit waits up to queueTimeout for one, and a request
// still waiting at the deadline is denied with 429. Reading and decoding a
// body is itself work an overloaded server must bound, so handlers admit
// before they read.
type Limiter struct {
	sem          chan struct{}
	queueTimeout time.Duration
	c            *Counters
}

// NewLimiter builds a limiter with maxInFlight slots and the given queue
// deadline. It moves four rows of counters: the queued and in_flight gauges
// and the rejected and canceled counts.
func NewLimiter(maxInFlight int, queueTimeout time.Duration, counters *Counters) *Limiter {
	return &Limiter{
		sem:          make(chan struct{}, maxInFlight),
		queueTimeout: queueTimeout,
		c:            counters,
	}
}

// Admit acquires an in-flight slot, waiting up to the queue deadline. It
// returns the release function, or the HTTP status that denied admission
// (429 on deadline, StatusClientClosedRequest when ctx died while queued).
func (l *Limiter) Admit(ctx context.Context) (release func(), status int, err error) {
	select {
	case l.sem <- struct{}{}: // fast path: a slot is free
	default:
		l.c.Add("queued", 1)
		defer l.c.Add("queued", -1)
		timer := time.NewTimer(l.queueTimeout)
		defer timer.Stop()
		select {
		case l.sem <- struct{}{}:
		case <-timer.C:
			l.c.Add("rejected", 1)
			return nil, http.StatusTooManyRequests, errors.New("server at capacity; retry later")
		case <-ctx.Done():
			l.c.Add("canceled", 1) // the client hung up while waiting in line
			return nil, StatusClientClosedRequest, ctx.Err()
		}
	}
	l.c.Add("in_flight", 1)
	return func() {
		l.c.Add("in_flight", -1)
		<-l.sem
	}, 0, nil
}

// AcquireExtra grabs up to n additional slots without blocking, returning
// how many it got and a release function. Batch requests use it to widen
// their internal worker pool only as far as idle capacity allows, keeping
// the total number of concurrently executing queries — single or inside
// batches — within the limit.
func (l *Limiter) AcquireExtra(n int) (got int, release func()) {
	for got < n {
		select {
		case l.sem <- struct{}{}:
			got++
		default:
			n = got
		}
	}
	l.c.Add("in_flight", int64(got))
	return got, func() {
		l.c.Add("in_flight", int64(-got))
		for i := 0; i < got; i++ {
			<-l.sem
		}
	}
}

// Held returns the number of slots currently held — for tests asserting no
// slot leaks after a burst.
func (l *Limiter) Held() int { return len(l.sem) }
