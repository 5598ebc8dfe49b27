package plfs

// The breaker's tuning, for the breaker tests in package plfs_test.
const (
	FailureThreshold = failureThreshold
	ProbeAfter       = probeAfter
	MaxProbeAfter    = maxProbeAfter
	SlowFactor       = slowFactor
	MinSamples       = minSamples
)
