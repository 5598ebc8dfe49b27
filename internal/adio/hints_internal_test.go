package adio

import "testing"

// TestHintsNormalization tables every (CollectiveBuffering, IOMethod)
// combination through withDefaults — the single normalization point —
// and checks the invariants the rest of the layer assumes: the method is
// never Auto afterwards, CollectiveBuffering agrees with the method
// (maybeCB keys on it), and the sizing knobs are always positive.
func TestHintsNormalization(t *testing.T) {
	cases := []struct {
		cb         bool
		method     IOMethod
		wantMethod IOMethod
		wantCB     bool
	}{
		{false, MethodAuto, MethodList, false},
		{true, MethodAuto, MethodTwoPhase, true},
		{false, MethodNaive, MethodNaive, false},
		{true, MethodNaive, MethodNaive, false}, // explicit method wins over the cb flag
		{false, MethodSieve, MethodSieve, false},
		{true, MethodSieve, MethodSieve, false},
		{false, MethodList, MethodList, false},
		{true, MethodList, MethodList, false},
		{false, MethodTwoPhase, MethodTwoPhase, true}, // method implies cb
		{true, MethodTwoPhase, MethodTwoPhase, true},
	}
	for _, c := range cases {
		h := Hints{CollectiveBuffering: c.cb, IOMethod: c.method}.withDefaults()
		if h.IOMethod != c.wantMethod {
			t.Errorf("cb=%v %v: method = %v, want %v", c.cb, c.method, h.IOMethod, c.wantMethod)
		}
		if h.CollectiveBuffering != c.wantCB {
			t.Errorf("cb=%v %v: CollectiveBuffering = %v, want %v", c.cb, c.method, h.CollectiveBuffering, c.wantCB)
		}
		if h.ProcsPerNode <= 0 || h.SieveGap <= 0 {
			t.Errorf("cb=%v %v: unnormalized sizing knobs: %+v", c.cb, c.method, h)
		}
	}
	// Explicit sizes survive normalization.
	h := Hints{ProcsPerNode: 7, SieveGap: 11}.withDefaults()
	if h.ProcsPerNode != 7 || h.SieveGap != 11 {
		t.Errorf("explicit sizes rewritten: %+v", h)
	}
	// Normalization is idempotent — applying it twice changes nothing.
	if again := h.withDefaults(); again != h {
		t.Errorf("withDefaults not idempotent: %+v vs %+v", again, h)
	}
}
