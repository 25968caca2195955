package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is one request of an open-loop schedule. Times are nanoseconds
// since the run's epoch. Latency runs from Intended, the time the schedule
// said to send, so time spent queued in the generator behind busy
// connections counts against the system, as a user would see it.
type outcome struct {
	Intended   int64
	Dispatched int64 // when the scheduler queued it; minus Intended = generator lateness
	Sent       int64 // when a connection picked it up
	Done       int64
	Status     int
	Err        error
	Version    uint64
	Dropped    bool // still unsent when the drain limit passed
}

func (o outcome) failed() bool { return o.Err != nil || o.Dropped || o.Status < 200 || o.Status > 299 }

// latencyMs is the open-loop latency; failures are +Inf so that they count
// as over any latency limit.
func (o outcome) latencyMs() float64 {
	if o.failed() {
		return math.Inf(1)
	}
	return float64(o.Done-o.Intended) / 1e6
}

// evenly is the schedule of n requests at a fixed rate: request i is due
// i/rate after the start.
func evenly(rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) * float64(time.Second) / rate)
	}
	return due
}

// openLoop sends one request per entry of due (offsets from the start, in
// ascending order) over at most lanes concurrent connections, whether or
// not earlier requests have finished. Requests that are due while every
// lane is busy wait in the generator's queue. Once the schedule ends, queued
// requests are still sent for up to drain; whatever is left after that is
// dropped, counted as failed, and passed to send with Dropped set and
// nothing to send. It returns one outcome per request, the
// queue length when the schedule ended, and the most requests ever due but
// not finished.
func openLoop(epoch time.Time, due []time.Duration, lanes int, drain time.Duration, send func(i int, o *outcome)) ([]outcome, int, int) {
	n := len(due)
	out := make([]outcome, n)
	queue := make(chan int, n) // sized to the schedule: the scheduler never blocks
	var pending, pendingMax atomic.Int64
	var dropAfter atomic.Int64
	dropAfter.Store(math.MaxInt64)
	now := func() int64 { return int64(time.Since(epoch)) }

	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				if now() > dropAfter.Load() {
					// Still handed to send, so it can release anything a
					// later request waits on.
					o.Dropped = true
					send(i, o)
					pending.Add(-1)
					continue
				}
				o.Sent = now()
				send(i, o)
				o.Done = now()
				pending.Add(-1)
			}
		}()
	}

	start := now()
	for i := 0; i < n; i++ {
		at := start + int64(due[i])
		if d := at - now(); d > 0 {
			sleepPrecise(time.Duration(d))
		}
		out[i].Intended = at
		out[i].Dispatched = now()
		if p := pending.Add(1); p > pendingMax.Load() {
			pendingMax.Store(p)
		}
		queue <- i
	}
	backlog := len(queue)
	dropAfter.Store(now() + int64(drain))
	close(queue)
	wg.Wait()
	return out, backlog, int(pendingMax.Load())
}

// sleepPrecise blocks the calling thread in nanosleep(2) for d. An idle Go
// process wakes from time.Sleep only at its netpoller's millisecond
// granularity: on a 2-vCPU virtual machine a 10 ms sleep overran by a
// median 0.6 ms and a p90 of 1.05 ms, against 0.12 ms and 0.23 ms in
// nanosleep.
// Requests are timed from their intended send time, so that overrun would
// be charged to every request as latency the system never caused.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// httpLane is one generator connection's client state: the shared
// keep-alive transport (capped at the run's lane count) and a body buffer
// reused by the one request the lane has in flight.
type httpLane struct {
	hc  *http.Client
	buf bytes.Buffer
}

// newHTTPClient returns a client that keeps at most lanes connections per
// host, so the generator never opens more connections than it has lanes.
func newHTTPClient(lanes int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     lanes,
			MaxIdleConnsPerHost: lanes,
			DisableCompression:  true,
		},
	}
}

// post sends body and reads the whole response into the lane's buffer.
func (l *httpLane) post(url string, body []byte) (status int, err error) {
	resp, err := l.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	l.buf.Reset()
	_, err = io.Copy(&l.buf, resp.Body)
	return resp.StatusCode, err
}

// errorBody is the start of a failed response's body, enough to name its
// error code in a log line.
func errorBody(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

var versionKey = []byte(`"version":`)

// bodyVersion extracts the top-level "version" of a v1 search or mutations
// response. The engine encodes map keys in sorted order, so "version" is the
// last key and scanning from the end avoids decoding the result.
func bodyVersion(b []byte) uint64 {
	i := bytes.LastIndex(b, versionKey)
	if i < 0 {
		return 0
	}
	rest := b[i+len(versionKey):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, _ := strconv.ParseUint(string(rest[:j]), 10, 64)
	return v
}
