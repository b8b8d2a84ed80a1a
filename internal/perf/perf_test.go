package perf

import "testing"

// TestSampleMonotonic checks the counters a span diffs are non-decreasing
// and plausibly populated.
func TestSampleMonotonic(t *testing.T) {
	s1 := Sample()
	// Allocate measurably between samples.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	_ = sink
	s2 := Sample()
	if s2.AllocBytes <= s1.AllocBytes {
		t.Errorf("TotalAlloc did not grow: %d -> %d", s1.AllocBytes, s2.AllocBytes)
	}
	if s2.CPUSeconds < s1.CPUSeconds {
		t.Errorf("CPU time went backwards: %v -> %v", s1.CPUSeconds, s2.CPUSeconds)
	}
	if s1.Goroutines <= 0 {
		t.Errorf("goroutine count = %d", s1.Goroutines)
	}
}
