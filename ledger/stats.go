package main

import (
	"encoding/json"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure is only quoted where at least this many observations back it.
const minBeyond = 10

// summary is a latency distribution reduced to what the ledger reports: the
// lower quartile, the median, the highest supported percentile up to the one
// asked for, and the sample count behind them.
type summary struct {
	N       int     `json:"n"`
	P25     float64 `json:"p25"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"` // the percentile the tail figure is at
	Tail    float64 `json:"tail"`
}

// MarshalJSON writes a failure-dominated (infinite) figure as a string.
func (s summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{"n": s.N, "p25": finite(s.P25), "p50": finite(s.P50), "tail_pct": s.TailPct, "tail": finite(s.Tail)})
}

// supportedPercentile returns the highest percentile, at most want (in
// percent), that leaves at least minBeyond of n samples above it. It
// returns 50 when n is too small to support any tail beyond the median.
func supportedPercentile(n int, want float64) float64 {
	if n <= 2*minBeyond {
		return 50
	}
	p := 100 * (1 - float64(minBeyond)/float64(n))
	return math.Max(50, math.Min(want, p))
}

// percentile is the nearest-rank percentile p (in percent) of sorted.
// Failed operations are recorded as +Inf, so they rank above every
// latency limit.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// summarize sorts a copy of samples and reports the lower quartile, the
// median and the highest percentile up to want that the sample count
// supports.
func summarize(samples []float64, want float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p := supportedPercentile(len(s), want)
	return summary{N: len(s), P25: percentile(s, 25), P50: percentile(s, 50), TailPct: p, Tail: percentile(s, p)}
}

// median of xs (NaN when empty); used for repeated set-up timings.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// rungResult is what one capacity-ladder step observed.
type rungResult struct {
	Rate float64 `json:"rate"`
	Tail summary `json:"tail"`
	// Backlog is how many requests were due but not yet sent when the
	// rung's schedule ended: a queue the server could not drain.
	Backlog int  `json:"backlog"`
	Pass    bool `json:"pass"`
}

// rungPasses decides one ladder step: the tail latency, at the highest
// percentile up to p99 the samples support, must be within limitMs, with
// failures counted as over the limit, and the generator must not have
// ended with more than a limit's worth of requests still waiting to be sent.
func rungPasses(latencies []float64, rate, limitMs float64, backlog int) bool {
	if len(latencies) == 0 {
		return false
	}
	s := summarize(latencies, 99)
	return s.Tail <= limitMs && float64(backlog) <= math.Max(2, rate*limitMs/1000)
}

// capacity searches a fixed ascending ladder of offered rates for the
// highest one that passes. It probes start first, gallops up (or down) in
// doubling steps until a passing and a failing rung bracket the answer, then
// bisects; latency grows with load, so passes are taken to be monotone. It
// returns 0 when no rung passes and the top rung when every rung does.
func capacity(ladder []float64, start int, probe func(rate float64) bool) float64 {
	lo, hi := -1, len(ladder) // invariant: ladder[lo] passes, ladder[hi] fails
	start = min(max(start, 0), len(ladder)-1)
	if probe(ladder[start]) {
		lo = start
	} else {
		hi = start
	}
	for step := 1; lo >= 0 && hi == len(ladder) && lo < len(ladder)-1; step *= 2 {
		next := min(lo+step, len(ladder)-1)
		if probe(ladder[next]) {
			lo = next
		} else {
			hi = next
		}
	}
	for step := 1; lo < 0 && hi > 0; step *= 2 {
		next := max(hi-step, 0)
		if probe(ladder[next]) {
			lo = next
		} else {
			hi = next
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(ladder[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0
	}
	return ladder[lo]
}

// span is one timed call at a layer boundary. Spans of one replayed request
// share ReqID; Parent names the span that caused this one ("" for a root).
type span struct {
	Name   string `json:"name"`
	ReqID  int    `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layerSelf is the self time of a layer whose lower layer was timed by a
// separate call on the same request (the replay calls each layer's entry
// point in turn): the layer's span minus the span of the layer below.
func layerSelf(layer, below span) int64 { return layer.dur() - below.dur() }

// staleness pairs each acknowledged write (ack time, version) with the first
// read through the router that reported at least that version, and returns
// the gap in milliseconds. A read that saw the version before the ack
// arrived counts as zero. Writes no read ever caught up with are left out
// and counted in missed.
func staleness(acks []versionAt, reads []versionAt) (gapsMs []float64, missed int) {
	sort.Slice(reads, func(i, j int) bool { return reads[i].At < reads[j].At })
	// best[i] is the highest version seen by reads[0..i].
	best := make([]uint64, len(reads))
	for i, r := range reads {
		best[i] = r.Version
		if i > 0 && best[i-1] > best[i] {
			best[i] = best[i-1]
		}
	}
	for _, a := range acks {
		// First read index whose running max reaches a.Version.
		i := sort.Search(len(reads), func(i int) bool { return best[i] >= a.Version })
		if i == len(reads) {
			missed++
			continue
		}
		gapsMs = append(gapsMs, math.Max(0, float64(reads[i].At-a.At)/1e6))
	}
	return gapsMs, missed
}

// versionAt is a snapshot version observed (or acknowledged) at a time, in
// nanoseconds since the run's epoch.
type versionAt struct {
	At      int64
	Version uint64
}
