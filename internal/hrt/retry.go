package hrt

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"slicehide/internal/obs"
)

// Error classification for the fault-tolerant link: transport-level
// failures (dial errors, I/O timeouts, broken or garbled frames) are
// retryable — re-sending the same (session, seq) pair is safe because the
// server's replay cache guarantees at-most-once execution. Failures the
// hidden server itself reports travel inside Response.Err and are
// terminal: the request was delivered and answered; retrying cannot
// change the answer.

// terminalError marks an error that retrying cannot fix.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// Terminal wraps err so Retryable reports false for it.
func Terminal(err error) error {
	if err == nil {
		return nil
	}
	return &terminalError{err: err}
}

// Retryable reports whether a transport error may succeed when the round
// trip is re-sent.
func Retryable(err error) bool {
	var te *terminalError
	return err != nil && !errors.As(err, &te)
}

// RetryPolicy bounds retries and shapes the backoff between attempts.
type RetryPolicy struct {
	// Retries is the number of re-attempts after the first try, so one
	// round trip makes at most Retries+1 attempts. 0 means the default
	// (8); negative disables retries.
	Retries int
	// BackoffBase and BackoffMax bound the exponential backoff between
	// attempts (defaults 2ms and 250ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the backoff jitter; 0 uses a fixed seed so runs
	// are deterministic unless configured otherwise.
	JitterSeed int64
	// Sleep replaces time.Sleep between attempts (tests use a virtual
	// clock).
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	switch {
	case p.Retries == 0:
		p.Retries = 8
	case p.Retries < 0:
		p.Retries = 0
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 2 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 250 * time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// NewSessionID returns a random nonzero session identifier.
func NewSessionID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// attempter is one try of a stamped request; retryPacer.run decides
// whether the next try happens.
type attempter interface {
	attempt(req Request) (Response, error)
}

// retryPacer is a retry budget plus its jittered backoff source: the one
// retry loop behind every MuxStream exchange, a fleet session's included.
type retryPacer struct {
	pol RetryPolicy
	mu  sync.Mutex
	rng *rand.Rand
}

func newRetryPacer(pol RetryPolicy) *retryPacer {
	pol = pol.withDefaults()
	seed := pol.JitterSeed
	if seed == 0 {
		seed = 1
	}
	return &retryPacer{pol: pol, rng: rand.New(rand.NewSource(seed))}
}

// run drives a to completion for one stamped request: retryable failures
// are re-attempted with the same stamp under backoff until success, a
// terminal error, or exhaustion of the budget.
func (p *retryPacer) run(a attempter, req Request, counters *Counters, tracer *obs.Tracer) (Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := a.attempt(req)
		if err == nil {
			return resp, nil
		}
		if !Retryable(err) || attempt >= p.pol.Retries {
			return Response{}, fmt.Errorf("hrt: request %d of session %d failed after %d attempt(s): %w",
				req.Seq, req.Session, attempt+1, err)
		}
		if counters != nil {
			counters.Retries.Add(1)
		}
		d := p.backoff(attempt)
		tracer.Emit(obs.LevelInfo, "retry",
			obs.Uint("session", req.Session), obs.Uint("seq", req.Seq),
			obs.Int("attempt", int64(attempt+1)), obs.Dur("backoff", d), obs.Err(err))
		p.pol.Sleep(d)
	}
}

// backoff returns the jittered exponential delay before retry `attempt`
// (0-based): uniform in [base·2ᵃ/2, base·2ᵃ], capped at BackoffMax.
func (p *retryPacer) backoff(attempt int) time.Duration {
	d := p.pol.BackoffBase
	for i := 0; i < attempt && d < p.pol.BackoffMax; i++ {
		d *= 2
	}
	if d > p.pol.BackoffMax || d <= 0 {
		d = p.pol.BackoffMax
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return d/2 + time.Duration(p.rng.Int63n(int64(d/2)+1))
}
