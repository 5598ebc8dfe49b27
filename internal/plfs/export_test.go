package plfs

// The breaker's tuning, for the breaker tests in package plfs_test.
const (
	FailureThreshold = failureThreshold
	ProbeAfter       = probeAfter
	MaxProbeAfter    = maxProbeAfter
	SlowFactor       = slowFactor
	MinSamples       = minSamples
)

// EconomyUsed reads the resident bytes of the cache economy behind a
// mount; a standalone mount's economy has no registry to read.
func EconomyUsed(m *Mount) int64 {
	m.econ.mu.Lock()
	defer m.econ.mu.Unlock()
	return m.econ.used
}

// GateInFlight reads how many operations a class's admission gate holds
// right now; a quiescent service holds none.
func GateInFlight(s *Service, class string) int {
	g := s.gates[class]
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}
