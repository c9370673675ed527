// Package loadgen drives a schedule against a system in one of two ways.
//
// A closed loop sends a client's next request only after the previous one
// completed: callers that each wait for a reply (an analyst, a writer). A
// slow system receives less load, so closed-loop latency is timed from the
// send.
//
// An open loop sends on a schedule regardless of completions: independent
// users (dashboard viewers). Each request is timed from when it was DUE,
// not from when it was sent, so a stall is charged to every request that
// had to wait behind it rather than hidden (coordinated omission), and how
// late the generator itself ran is reported beside the latencies.
package loadgen

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Sample is one operation's timing, as offsets from the start of the run.
type Sample struct {
	Client, Index int
	// Due is when the op was scheduled (open loop) or sent (closed loop).
	Due time.Duration
	// Free is when a connection was free to take the op (open loop).
	Free time.Duration
	// Sent is when it actually left; Done is when its reply was complete.
	Sent, Done time.Duration
	Err        error
}

// Latency is the time a user waited: from the due time to the reply.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the op left: the schedule backing up behind busy
// connections plus the generator's own tardiness.
func (s Sample) Lag() time.Duration { return s.Sent - s.Due }

// FireLag is the generator's own tardiness: how long after the op was both
// due and had a free connection it actually left. A generator that cannot
// keep up with its schedule shows here, a slow system does not.
func (s Sample) FireLag() time.Duration { return s.Sent - max(s.Due, s.Free) }

// Closed runs one goroutine per client; client c performs ops 0..counts[c]-1
// in order, each after the previous one returned. Samples come back grouped
// by client, in op order.
func Closed(counts []int, do func(client, index int) error) []Sample {
	start := time.Now()
	per := make([][]Sample, len(counts))
	var wg sync.WaitGroup
	for c, n := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]Sample, n)
			for i := range out {
				sent := time.Since(start)
				err := do(c, i)
				out[i] = Sample{Client: c, Index: i, Due: sent, Free: sent, Sent: sent, Done: time.Since(start), Err: err}
			}
			per[c] = out
		}()
	}
	wg.Wait()
	var all []Sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// Open fires op i at start+due[i] (due ascending) over conns workers, each
// standing for one connection: a worker takes the next op, sleeps until it
// is due — or not at all if it is already late — and performs it. With
// every worker busy the schedule backs up and the following ops are late;
// their latency, measured from the due time, shows it. Samples come back
// in op order.
func Open(due []time.Duration, conns int, do func(conn, index int) error) []Sample {
	start := time.Now()
	out := make([]Sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				free := time.Since(start)
				sleepUntil(start.Add(due[i]))
				sent := time.Since(start)
				err := do(c, i)
				out[i] = Sample{Client: c, Index: i, Due: due[i], Free: free, Sent: sent, Done: time.Since(start), Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread until t. time.Sleep parks the
// goroutine on the runtime's timers, which an otherwise idle process serves
// from a poll with millisecond resolution: requests would leave up to a
// millisecond late, and a 0.2 ms reply would read as 1 ms. nanosleep(2) is
// precise to the kernel's timer slack (~50 us) and burns no CPU the servers
// need; the runtime hands the sleeping thread's processor to other
// goroutines meanwhile.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// MinBeyond is how many samples must lie beyond a percentile for it to be
// reported: the highest percentile a sample supports is the one with ten
// observations past it.
const MinBeyond = 10

// Percentile returns the p-quantile (0 < p < 1, nearest rank) of values
// sorted ascending, and whether at least MinBeyond samples lie beyond it. A
// percentile that fails the rule is still returned, so a caller bound to
// print every metric can, but it must say the sample was too small.
func Percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= MinBeyond
}

// Millis converts latencies to sorted milliseconds for Percentile.
func Millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// Median is the middle value of unsorted values (the mean of the two middle
// ones for an even count); 0 for none.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
