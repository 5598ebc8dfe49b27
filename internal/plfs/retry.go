package plfs

import (
	"errors"
	iofs "io/fs"
	"syscall"
	"time"

	"plfs/internal/obs"
)

// RetryPolicy retries transient backend errors — the absorption layer
// for flaky backing stores (a rebuilding OST, an object store surfacing
// per-object EIO).  A mount applies it as one interceptor on every
// volume it binds (Mount.bind), so every store call absorbs transient
// errors the same way.  Backoff grows exponentially with deterministic
// jitter and is charged through the context's Sleeper, so simulated
// retries cost virtual time while osfs deployments sleep for real.
type RetryPolicy struct {
	// Attempts is the total number of tries including the first;
	// values <= 1 disable retrying.
	Attempts int
	// Backoff is the first retry's base delay (default 1ms).
	Backoff time.Duration
}

// maxBackoff caps the exponential growth of a retry's delay.
const maxBackoff = 100 * time.Millisecond

// delay returns the backoff before retry attempt k (1-based), jittered
// deterministically by rank so a cohort of ranks retrying the same
// failure doesn't reissue in lockstep.
func (p RetryPolicy) delay(k, rank int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 1; i < k && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	// Deterministic jitter in [d/2, d): hash rank and attempt.
	h := uint64(rank)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	frac := float64(h>>11) / float64(1<<53)
	return d/2 + time.Duration(float64(d/2)*frac)
}

// permanent lists the store verdicts no retry can change: the io/fs
// namespace sentinels (not-exist, exist, permission, invalid, closed)
// and the errnos a store reports for a wrong node type, a non-empty
// directory and a handle not open for the call.  The simulated stores
// wrap the same errnos in their sentinels (pfs, objfs), so a verdict
// classifies the same on every store.
var permanent = [...]error{
	iofs.ErrNotExist, iofs.ErrExist, iofs.ErrPermission, iofs.ErrInvalid, iofs.ErrClosed,
	syscall.ENOTDIR, syscall.EISDIR, syscall.ENOTEMPTY, syscall.EBADF,
}

// Retryable classifies an error for the retry policy: injected faults
// declare themselves via Transient(); the verdicts in permanent are
// permanent; anything else — the EIO-shaped remainder — is worth
// retrying.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	for _, p := range permanent {
		if errors.Is(err, p) {
			return false
		}
	}
	return true
}

// interceptor returns the policy as an Interceptor for one process: a
// call that fails retryably is reissued, after the policy's backoff for
// rank, until it succeeds, fails permanently, or has run Attempts times.
// Two calls need more than a reissue:
//
//   - A Create whose retry finds the file existing opens it for writing
//     instead (the Op becomes an OpOpenWrite): an earlier attempt created
//     the file before failing, and the file is this caller's.
//   - A CreateBulk resubmits only its retryably failed entries, and an
//     ErrExist on a resubmitted entry means an earlier attempt landed it.
//
// Each backoff counts plfs.retry.attempts in reg; a transient error that
// survives every attempt counts plfs.retry.exhausted (per entry, for a
// batch).
func (p RetryPolicy) interceptor(rank int, sl Sleeper, reg *obs.Registry) Interceptor {
	backoff := func(k int) {
		reg.Counter("plfs.retry.attempts").Add(1)
		pause(sl, p.delay(k, rank))
	}
	return func(op *Op, call func() error) error {
		if op.Kind == OpCreateBulk {
			call()
			batch, errs := op.Bulk, op.BulkErrs
			var pending []int
			for i, err := range errs {
				if Retryable(err) {
					pending = append(pending, i)
				}
			}
			for k := 1; k < p.Attempts && len(pending) > 0; k++ {
				backoff(k)
				op.Bulk = make([]BulkOp, len(pending))
				for j, i := range pending {
					op.Bulk[j] = batch[i]
				}
				call()
				next := pending[:0]
				for j, i := range pending {
					if errs[i] = op.BulkErrs[j]; errors.Is(errs[i], iofs.ErrExist) {
						errs[i] = nil
					}
					if Retryable(errs[i]) {
						next = append(next, i)
					}
				}
				pending = next
			}
			if len(pending) > 0 {
				reg.Counter("plfs.retry.exhausted").Add(int64(len(pending)))
			}
			op.Bulk, op.BulkErrs = batch, errs
			return firstErr(errs)
		}
		err := call()
		for k := 1; k < p.Attempts && Retryable(err); k++ {
			backoff(k)
			if err = call(); op.Kind == OpCreate && errors.Is(err, iofs.ErrExist) {
				op.Kind = OpOpenWrite
				err = call()
			}
		}
		if Retryable(err) {
			reg.Counter("plfs.retry.exhausted").Add(1)
		}
		return err
	}
}

// pause sleeps d on sl, or for real when there is no Sleeper (osfs).
func pause(sl Sleeper, d time.Duration) {
	if sl != nil {
		sl.Sleep(d)
		return
	}
	time.Sleep(d)
}
