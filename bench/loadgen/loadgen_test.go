package loadgen

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.50, 10, false}, // 9 beyond
		{20, 0.50, 10, true},  // 10 beyond
		{199, 0.95, 190, false},
		{200, 0.95, 190, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{1, 0.99, 1, false},
	}
	for _, tc := range cases {
		got, ok := Percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p%v of %d samples = %v (reportable %v), want %v (%v)", tc.p*100, tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := Percentile(nil, 0.5); ok {
		t.Error("a percentile of nothing is reportable")
	}
}

// TestOpenLoopChargesAStallToFollowers: a handler that stalls once must
// inflate the latency of the requests scheduled behind it and the
// generator's lag, because both are counted from the due time. A closed
// loop over the same handler hides the stall from every request but one.
func TestOpenLoopChargesAStallToFollowers(t *testing.T) {
	const (
		n        = 40
		interval = 2 * time.Millisecond
		stall    = 60 * time.Millisecond
		stallAt  = 10
	)
	var calls atomic.Int64
	handler := func(int, int) error {
		if calls.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		return nil
	}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	samples := Open(due, 1, handler)

	late := 0
	var lags []time.Duration
	for i, s := range samples {
		if s.Index != i || s.Due != due[i] {
			t.Fatalf("sample %d is op %d due %v", i, s.Index, s.Due)
		}
		lags = append(lags, s.Lag())
		if i > stallAt && s.Latency() > 10*time.Millisecond {
			late++
		}
	}
	// The stall covers 30 intervals, so at least the next 20 requests were
	// due while the connection was blocked.
	if late < 20 {
		t.Errorf("only %d requests behind the stall show it in their latency, want >= 20", late)
	}
	if p99, _ := Percentile(Millis(lags), 0.99); p99 < 40 {
		t.Errorf("generator lag p99 = %.1f ms, want the %v stall to show", p99, stall)
	}
	// The generator itself was never late: each op left as soon as it was
	// due and the connection was free.
	for _, s := range samples {
		if s.FireLag() > 5*time.Millisecond {
			t.Errorf("op %d left %v after it could have", s.Index, s.FireLag())
		}
	}
	if before := samples[stallAt-1].Latency(); before > 10*time.Millisecond {
		t.Errorf("a request before the stall waited %v", before)
	}

	calls.Store(0)
	slow := 0
	for _, s := range Closed([]int{n}, handler) {
		if s.Latency() > 10*time.Millisecond {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("closed loop: %d slow requests, want exactly the stalled one", slow)
	}
}

func TestOpenLoopSpreadsOverConnections(t *testing.T) {
	due := make([]time.Duration, 20)
	used := make([]atomic.Int64, 2)
	Open(due, 2, func(conn, _ int) error {
		used[conn].Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if used[0].Load() == 0 || used[1].Load() == 0 {
		t.Errorf("ops per connection = %d and %d, want both in use", used[0].Load(), used[1].Load())
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}
