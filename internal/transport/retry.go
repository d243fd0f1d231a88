package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"dcsr/internal/obs"
)

// RetryPolicy configures how a Client survives delivery failures: how
// long one request may take, how often it is retried, and how the
// retries back off. The zero value is the seed behaviour — no deadline,
// no retry, fail on the first I/O error — so existing callers are
// byte-for-byte unaffected.
//
// Only transport-level failures (write errors, read errors, timeouts,
// injected faults) are retried; protocol-level rejections (StatusNotFound,
// StatusBadReq) are deterministic and returned immediately. A failed
// request leaves the connection desynchronized, so a retry first
// re-establishes the connection through Client.Redial; without a Redial
// hook, transport-level failures are fatal exactly as in the zero policy.
//
// StatusRetryAfter — the server's admission shed — is a third class: the
// connection stays synchronized (no redial) and the rejection is
// retryable under its own ShedRetries budget, with the server's carried
// hint acting as a floor on the backoff so a shedding server is never
// hammered faster than it asked for.
type RetryPolicy struct {
	// MaxRetries is how many additional attempts follow a failed one.
	// 0 (default) disables retrying.
	MaxRetries int
	// ShedRetries is how many additional attempts follow a
	// StatusRetryAfter shed, each backing off by at least the server's
	// hint. 0 (default) falls back to MaxRetries, so a retry-configured
	// client honors sheds without extra configuration.
	ShedRetries int
	// BaseDelay is the backoff before the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the backoff per attempt (default 2).
	Multiplier float64
	// Jitter randomizes that fraction of each backoff (default 0.2;
	// negative disables jitter entirely). Jitter draws come from a PRNG
	// seeded with Seed, so schedules are reproducible.
	Jitter float64
	// Timeout bounds one request/response exchange via a read deadline
	// on the connection (0 = none). Connections that do not implement
	// SetReadDeadline — strings readers in tests, say — silently run
	// without a deadline.
	Timeout time.Duration
	// Seed seeds the jitter PRNG.
	Seed int64
}

// withDefaults fills the documented defaults for enabled retrying.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.ShedRetries < 0 {
		p.ShedRetries = 0
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 0
		if p.ShedRetries == 0 {
			return p
		}
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	switch {
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter == 0:
		p.Jitter = 0.2
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// backoff returns the sleep before retry number attempt (0-based):
// BaseDelay·Multiplier^attempt capped at MaxDelay, with the Jitter
// fraction redrawn uniformly so synchronized clients spread out.
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := float64(p.BaseDelay) * math.Pow(p.Multiplier, float64(attempt))
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		d = d*(1-p.Jitter) + rng.Float64()*d*p.Jitter
	}
	return time.Duration(d)
}

// shedBudget is the effective retry budget for admission sheds:
// ShedRetries when set, otherwise MaxRetries.
func (p RetryPolicy) shedBudget() int {
	if p.ShedRetries > 0 {
		return p.ShedRetries
	}
	return p.MaxRetries
}

// statusError is a protocol-level failure: the response arrived intact
// but carried a non-OK status. The connection stays synchronized and the
// outcome is deterministic, so a statusError is never retried through the
// transport path — with one exception: StatusRetryAfter carries the
// server's backoff hint and is retried under RetryPolicy.ShedRetries.
type statusError struct {
	op     byte
	arg    uint32
	status byte
	// hint is the server's retry-after backoff hint; nonzero only for
	// StatusRetryAfter.
	hint time.Duration
}

func (e *statusError) Error() string {
	switch e.status {
	case StatusNotFound:
		return fmt.Sprintf("transport: op %d arg %d: not found", e.op, e.arg)
	case StatusRetryAfter:
		return fmt.Sprintf("transport: op %d arg %d: shed, retry after %v", e.op, e.arg, e.hint)
	}
	return fmt.Sprintf("transport: op %d arg %d: status %d", e.op, e.arg, e.status)
}

// IsNotFound reports whether err is the server's StatusNotFound reply —
// the one failure that is semantic (the artifact does not exist) rather
// than transport-level.
func IsNotFound(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.status == StatusNotFound
}

// IsRetryAfter reports whether err is the server's StatusRetryAfter
// admission shed, returning the carried backoff hint. A client that
// exhausts its shed budget surfaces this error; callers can keep backing
// off by at least the hint and try again later.
func IsRetryAfter(err error) (time.Duration, bool) {
	var se *statusError
	if errors.As(err, &se) && se.status == StatusRetryAfter {
		return se.hint, true
	}
	return 0, false
}

// isTimeoutErr classifies deadline expiries for the timeout metric.
func isTimeoutErr(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// readDeadliner is the optional connection capability per-request
// timeouts need; net.Conn, net.Pipe ends, faultnet.Conn and
// ThrottledConn all provide it.
type readDeadliner interface{ SetReadDeadline(time.Time) error }

// retrier is the one retry/shed/backoff state machine; Client.roundTrip
// and MuxClient.Do each drive it with their own attempt function. It owns
// the shed budget (the server's hint floors the backoff), the failure
// budget with jittered backoff, ctx-interruptible sleeps, and the
// counters, log lines and attempt spans. Cancellation is
// attempt-granular, and a ctx deadline tightens the attempt's timeout so
// it cuts short even an in-flight read. Safe for concurrent use.
type retrier struct {
	// Retries, Timeouts, Reconnects and Sheds mirror the obs counters
	// transport_client_{retries,timeouts,reconnects,shed}_total; the
	// attempt functions count reconnects. StallTime sums the backoff
	// sleeps: delivery time lost to faults.
	Retries, Timeouts, Reconnects, Sheds int
	StallTime                            time.Duration

	sleep func(time.Duration) // test hook; a ctx-interruptible timer when nil
	mu    sync.Mutex          // guards rng and the counters
	rng   *rand.Rand          // jitter PRNG, lazily seeded from the policy
}

// attempter is what each client contributes to the retrier: one
// exchange under the given read timeout. A *statusError is a protocol
// answer; any other error is a retryable transport failure.
type attempter interface {
	attempt(ctx context.Context, op byte, arg uint32, timeout time.Duration, tc TraceContext) ([]byte, error)
}

// request is one call through the retrier. trace parents one
// attempt-numbered span per attempt; with wire set, each span's identity
// rides its request frame so the server span parents to the attempt that
// reached it.
type request struct {
	op    byte
	arg   uint32
	pol   RetryPolicy
	obs   *obs.Obs
	log   *obs.Logger
	trace *obs.Span
	wire  bool
	via   attempter
}

// do drives q through the state machine: attempt, classify, back off,
// try again — up to MaxRetries extra attempts for transport failures and
// the shed budget for sheds. Other statuses are returned at once.
func (r *retrier) do(ctx context.Context, q request) ([]byte, error) {
	pol := q.pol.withDefaults()
	var lastErr error
	fails, sheds := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		timeout := pol.Timeout
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); timeout == 0 || rem < timeout {
				timeout = rem
			}
		}
		n := fails + sheds
		asp := q.trace.Child("attempt")
		asp.Set("op", opName(q.op))
		asp.Set("attempt", n)
		var tc TraceContext
		if q.wire && asp != nil {
			tc = TraceContext{TraceID: asp.TraceID(), SpanID: asp.SpanID(), Attempt: uint8(n)}
		}
		payload, err := q.via.attempt(ctx, q.op, q.arg, timeout, tc)
		if err == nil {
			asp.Set("outcome", "ok")
			asp.End()
			return payload, nil
		}
		var se *statusError
		if errors.As(err, &se) {
			if se.status != StatusRetryAfter {
				asp.Set("outcome", "rejected")
				asp.Set("status", int(se.status))
				asp.End()
				return nil, err // deterministic rejection; never retried
			}
			// Admission shed: the connection is still synchronized, so
			// back off by at least the server's hint and try again under
			// the shed budget.
			r.count(&r.Sheds)
			q.obs.Counter("transport_client_shed_total").Inc()
			asp.Set("outcome", "shed")
			asp.Set("hint", se.hint.String())
			asp.End()
			if sheds >= pol.shedBudget() {
				return nil, err
			}
			d := r.backoff(pol, sheds, se.hint)
			sheds++
			q.log.Warn("transport: request shed by server", "op", opName(q.op), "arg", q.arg,
				"hint", se.hint, "backoff", d)
			if err := r.sleepFor(ctx, d); err != nil {
				return nil, err
			}
			continue
		}
		if isTimeoutErr(err) {
			r.count(&r.Timeouts)
			q.obs.Counter("transport_client_timeouts_total").Inc()
		}
		asp.Set("outcome", "error")
		asp.Set("error", err.Error())
		asp.End()
		lastErr = err
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if fails >= pol.MaxRetries {
			return nil, lastErr
		}
		r.count(&r.Retries)
		q.obs.Counter("transport_client_retries_total").Inc()
		d := r.backoff(pol, fails, 0)
		fails++
		q.log.Warn("transport: retrying request", "op", opName(q.op), "arg", q.arg,
			"attempt", fails, "backoff", d, "err", lastErr)
		if err := r.sleepFor(ctx, d); err != nil {
			return nil, err
		}
	}
}

func (r *retrier) count(c *int) {
	r.mu.Lock()
	*c++
	r.mu.Unlock()
}

// backoff draws the n-th jittered backoff of pol, floored at floor, and
// books it as stall time.
func (r *retrier) backoff(pol RetryPolicy, n int, floor time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(pol.Seed))
	}
	d := max(pol.backoff(n, r.rng), floor)
	r.StallTime += d
	return d
}

// sleepFor blocks for d or until ctx is cancelled, whichever comes first.
func (r *retrier) sleepFor(ctx context.Context, d time.Duration) error {
	if r.sleep != nil {
		r.sleep(d) // test hook: instantaneous
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
