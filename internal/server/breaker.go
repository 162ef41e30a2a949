package server

// The ingest circuit breaker moved to internal/cluster: failure shedding
// is a property of one shard, not of the HTTP frontend. What stays here
// is the retry-delay jitter of the 429 responses.

import "repro/internal/rng"

// retryAfterSecs maps a request sequence number to a deterministic
// pseudo-random Retry-After of 1, 2, or 3 seconds, spreading shed
// writers' retries instead of synchronizing them on one fixed delay.
func retryAfterSecs(seq uint64) int {
	return 1 + int(rng.Draw(seq)%3)
}
