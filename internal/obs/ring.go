package obs

import "sync"

// ring is the fixed-capacity buffer of retained traces, shared by the
// replica (Trace) and router (FleetTrace) tracers. It is lock-light rather
// than lock-free: every operation holds the mutex for a single bounded
// copy, no evaluation or I/O ever runs under it, and the request path only
// touches it for the sampled minority of requests that tail-sampling
// retains. Entries are stored by value, so a pushed trace can be recycled
// immediately and readers can never observe a trace mid-recycle.
type ring[T interface{ traceID() uint64 }] struct {
	mu  sync.Mutex
	buf []T
	// n counts lifetime pushes; n % len(buf) is the next slot.
	n uint64
}

func (t Trace) traceID() uint64      { return t.ID }
func (t FleetTrace) traceID() uint64 { return t.ID }

// newRing builds a ring retaining the last capacity traces (default 256).
func newRing[T interface{ traceID() uint64 }](capacity int) *ring[T] {
	if capacity <= 0 {
		capacity = 256
	}
	return &ring[T]{buf: make([]T, capacity)}
}

// Push copies t into the ring, overwriting the oldest entry when full.
func (r *ring[T]) Push(t *T) {
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = *t
	r.n++
	r.mu.Unlock()
}

func (r *ring[T]) lenLocked() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Snapshot returns up to limit retained traces, newest first (limit <= 0
// returns everything).
func (r *ring[T]) Snapshot(limit int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.lenLocked()
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]T, 0, limit)
	for i := 0; i < limit; i++ {
		// Newest entry is at n-1; walk backwards.
		slot := (r.n - 1 - uint64(i)) % uint64(len(r.buf))
		out = append(out, r.buf[slot])
	}
	return out
}

// Get returns the retained trace with the given ID.
func (r *ring[T]) Get(id uint64) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.lenLocked(); i++ {
		if r.buf[i].traceID() == id {
			return r.buf[i], true
		}
	}
	var zero T
	return zero, false
}
