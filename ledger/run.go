package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/acq-search/acq/engine"
)

// run is one benchmark invocation: one workload, one seed.
type run struct {
	cfg     *config
	name    string
	w       workload
	seed    int64
	seconds float64
	trace   bool
	bin     string
	inputs  string
	dir     string
	epoch   time.Time
	nproc   int
	ps      *procs

	cols    map[string]*loaded // in-process reference copies, cache off
	gen     *queryGen
	stream  *stream
	probes  []request
	flags   map[string][]string // server flags, by process role
	servers []*proc             // the serving processes, for RSS and CPU

	// Serving topology: base is where the generator sends traffic (acqd,
	// or the router in write-mix); leader and follower are the direct
	// addresses behind it.
	base, leader, follower string
	leaderProc             *proc

	attempted, failed int
	checkFailures     []string
	e2e, layer        map[string]float64
	details           map[string]any
	tr                tracer
	statuses          map[string]int
	overruns          int
	// encodingMismatches counts probe answers equal to the in-process
	// copy's but encoded with different bytes.
	encodingMismatches int
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

func (r *run) detail(k string, v any) {
	if r.details == nil {
		r.details = map[string]any{}
	}
	r.details[k] = v
}

// env is the environment every result records, so these figures are never
// compared with runs on another machine or with other server flags.
func (r *run) env() map[string]any {
	return map[string]any{
		"workload":          r.name,
		"seed":              r.seed,
		"seconds":           r.seconds,
		"trace":             r.trace,
		"nproc":             r.nproc,
		"gomaxprocs_ledger": runtime.GOMAXPROCS(0),
		"gomaxprocs_server": r.nproc,
		"go_version":        runtime.Version(),
		"goos_goarch":       runtime.GOOS + "/" + runtime.GOARCH,
		"lanes":             r.lanes(),
		"server_flags":      r.flags,
		"server_defaults": map[string]any{
			"cache_entries_per_snapshot": 256,
			"follow_interval":            "500ms",
			"router_health_interval":     "2s",
		},
		"workload_config": r.w,
		"query_config":    r.cfg.Query,
	}
}

// lanes is the generator's connection count: at most nproc.
func (r *run) lanes() int { return max(1, min(r.cfg.Lanes, r.nproc)) }

func (r *run) execute() error {
	if err := r.prepare(); err != nil {
		return err
	}
	if r.w.writes() {
		return r.executeWriteMix()
	}
	return r.executeRead()
}

// prepare generates the inputs and loads the benchmark's own in-process
// copy of every collection. None of this counts as set-up time.
func (r *run) prepare() error {
	r.cols = map[string]*loaded{}
	r.statuses = map[string]int{}
	var loadS, indexS float64
	for _, c := range r.w.Collections {
		path, err := ensureGraph(r.inputs, c, r.cfg.Scale)
		if err != nil {
			return err
		}
		l, err := loadGraph(path, -1)
		if err != nil {
			return err
		}
		if err := l.indexCores(r.cfg.Query.KMax); err != nil {
			return err
		}
		for k := r.cfg.Query.KMin; k <= r.cfg.Query.KMax; k++ {
			if len(l.byCore[k]) == 0 {
				return fmt.Errorf("%s has no vertex with core ≥ %d", c, k)
			}
		}
		loadS += l.load.Seconds()
		indexS += l.index.Seconds()
		r.cols[c] = l
	}
	// Figures of layers a read workload does not exercise read 0 there.
	for _, m := range []string{"write.effective_ops", "write.delta_publishes", "write.full_publishes",
		"write.compactions", "checkpoint.count", "replica.applied_ops", "replica.lag_ops_max", "replica.bootstraps",
		"write_p50_ms", "write_tail_ms", "staleness_p50_ms", "staleness_tail_ms", "recovery_s"} {
		r.layer[m] = 0
	}
	r.layer["setup.load_s"] = loadS
	r.layer["setup.index_build_s"] = indexS
	r.gen = &queryGen{qc: r.cfg.Query, rng: newRand(r.seed), cols: r.cols}
	r.stream = newStream(r.gen, r.w)
	// Probes come from their own generator so the traffic stream does not
	// depend on how many probes there are.
	pg := &queryGen{qc: r.cfg.Query, rng: newRand(r.seed ^ 0x5eed), cols: r.cols}
	for _, c := range r.w.Collections {
		for i := 0; i < r.cfg.ProbesPerCollection; i++ {
			r.probes = append(r.probes, pg.next(c))
		}
	}
	return nil
}

// --- read-distinct and read-hot.

func (r *run) acqdArgs(addr string) []string {
	args := []string{"-addr", addr}
	for _, c := range r.w.Collections {
		args = append(args, "-collection", c+"="+r.cols[c].path)
	}
	return args
}

// bootReadServer starts acqd with every collection preloaded and returns
// the time from process start until all of them answer ready.
func (r *run) bootReadServer() (*proc, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := r.acqdArgs(addr)
	r.flags = map[string][]string{"acqd": args}
	t0 := time.Now()
	p, err := r.ps.start("acqd", filepath.Join(r.bin, "acqd"), addr, r.nproc, args...)
	if err != nil {
		return nil, 0, err
	}
	err = waitUntil(p, 120*time.Second, "collections ready", func() bool {
		return collectionsReady(p.url, r.w.Collections)
	})
	return p, time.Since(t0).Seconds(), err
}

func (r *run) executeRead() error {
	// Set-up is timed several times and the median kept; the last server
	// stays up for the measurement.
	var times, rss []float64
	var p *proc
	for i := 0; i < r.cfg.SetupRepeats; i++ {
		if p != nil {
			r.ps.kill(p)
		}
		var err error
		var d float64
		if p, d, err = r.bootReadServer(); err != nil {
			return err
		}
		times = append(times, d)
		rss = append(rss, residentMB(p))
	}
	r.e2e["setup_s"] = median(times)
	r.e2e["server_rss_mb"] = median(rss)
	r.layer["setup.server_ready_s"] = median(times)
	r.detail("setup_s_samples", times)
	r.servers = []*proc{p}
	r.base, r.leader = p.url, p.url

	if r.trace {
		if err := r.traceReplay(); err != nil {
			return err
		}
	}
	if err := r.checkProbes("before window", p.url); err != nil {
		return err
	}
	if r.w.WarmupSeconds > 0 {
		r.drive(r.w.Rate, r.w.WarmupSeconds, nil)
	}

	before, err := metricsOf(p.url)
	if err != nil {
		return err
	}
	cpu0 := r.serverCPU()
	mon := startMonitor(r.servers)
	win := r.drive(r.w.Rate, r.windowSeconds(), nil)
	r.stopMonitor(mon)
	r.e2e["server_cpu_ms_per_op"] = (r.serverCPU() - cpu0) / float64(max(1, len(win.search)))
	after, err := metricsOf(p.url)
	if err != nil {
		return err
	}
	r.recordWindow(win)
	r.recordCache(before, after)
	r.serial()

	if err := r.checkProbes("after window", p.url); err != nil {
		return err
	}
	if r.trace {
		r.layer["capacity_qps"] = r.capacity(nil)
		return r.probeWrites()
	}
	return nil
}

// window is what one open-loop stretch of traffic observed.
type window struct {
	search, write []outcome
	writeVersions []versionAt // acknowledged mutation batches
	readVersions  []versionAt // versions reported by reads
	backlog       int
	pendingMax    int
}

// drive runs the workload's read stream open-loop at rate for seconds. In
// write-mix (writes non-nil) mutation batches join the same schedule at the
// write rate and share the lanes; each batch is sent only after the one
// before it was answered, so the leader applies them in generated order.
func (r *run) drive(rate, seconds float64, writes *writeGen) window {
	type item struct {
		at    time.Duration
		read  int // index into reqs, or -1
		write int // index into bodies, or -1
	}
	reqs := r.stream.take(int(math.Round(rate * seconds)))
	var items []item
	for i, at := range evenly(rate, len(reqs)) {
		items = append(items, item{at, i, -1})
	}
	var bodies [][]byte
	if writes != nil {
		bodies = make([][]byte, int(math.Round(r.w.WriteRate*seconds)))
		for j, at := range evenly(r.w.WriteRate, len(bodies)) {
			bodies[j] = encodeMutations(writes.batch())
			items = append(items, item{at, -1, j})
		}
		sort.SliceStable(items, func(a, b int) bool { return items[a].at < items[b].at })
	}
	due := make([]time.Duration, len(items))
	for i, it := range items {
		due[i] = it.at
	}
	// written[j] closes once batch j is answered; batch j+1 waits for it.
	written := make([]chan struct{}, len(bodies))
	for j := range written {
		written[j] = make(chan struct{})
	}

	lanes := r.lanes()
	hc := newHTTPClient(lanes, 10*time.Second)
	lanePool := sync.Pool{New: func() any { return &httpLane{hc: hc} }}
	var win window
	var mu sync.Mutex
	out, backlog, pmax := openLoop(r.epoch, due, lanes, 2*time.Second, func(i int, o *outcome) {
		l := lanePool.Get().(*httpLane)
		defer lanePool.Put(l)
		if j := items[i].write; j >= 0 {
			defer close(written[j])
			if o.Dropped {
				return
			}
			if j > 0 {
				<-written[j-1]
			}
			o.Status, o.Err = l.post(r.base+"/v1/mutations", bodies[j])
			if o.Err == nil && o.Status != http.StatusOK {
				o.Err = fmt.Errorf("mutation batch %d: %s", j, errorBody(l.buf.Bytes()))
			}
			if o.Err != nil {
				return
			}
			o.Version = bodyVersion(l.buf.Bytes())
			if !bytes.Contains(l.buf.Bytes(), []byte(`"applied":8,`)) {
				o.Err = fmt.Errorf("mutation batch %d: not every op changed the graph: %s", j, l.buf.String())
			}
			mu.Lock()
			win.writeVersions = append(win.writeVersions, versionAt{At: r.now(), Version: o.Version})
			mu.Unlock()
			return
		}
		if o.Dropped {
			return
		}
		q := reqs[items[i].read]
		o.Status, o.Err = l.post(r.base+"/v1/collections/"+r.colPath(q.Collection)+"/search", q.Body)
		if o.Err == nil && o.Status != http.StatusOK {
			o.Err = fmt.Errorf("search %s: %s", q.Body, errorBody(l.buf.Bytes()))
		}
		if o.Err == nil {
			o.Version = bodyVersion(l.buf.Bytes())
			mu.Lock()
			win.readVersions = append(win.readVersions, versionAt{At: r.now(), Version: o.Version})
			mu.Unlock()
		}
	})
	hc.CloseIdleConnections()
	for i, it := range items {
		if it.write >= 0 {
			win.write = append(win.write, out[i])
		} else {
			win.search = append(win.search, out[i])
		}
	}
	win.backlog, win.pendingMax = backlog, pmax
	return win
}

// recordWindow turns a latency window into the search metrics and the
// attempted/failed counts, and tallies error statuses and late answers.
func (r *run) recordWindow(win window) {
	var lat, late []float64
	for _, o := range win.search {
		r.tally(o)
		lat = append(lat, o.latencyMs())
		late = append(late, float64(o.Dispatched-o.Intended)/1e6)
	}
	// The open-loop figures are per-layer: CPU steal on a shared virtual
	// machine delays a random share of requests, and queueing behind them
	// spreads the delay, so even the lower quartile spread up to 0.28 across
	// seeds. The gated latency comes from the serial phase (see serial).
	s := summarize(lat, 99)
	r.layer["search_p25_ms"], r.layer["search_p50_ms"], r.layer["search_p99_ms"] = s.P25, s.P50, s.Tail
	r.detail("search", s)
	for _, o := range win.write {
		r.tally(o)
	}
	r.layer["loadgen.late_p99_ms"] = summarize(late, 99).Tail
	r.layer["loadgen.inflight_max"] = float64(win.pendingMax)
	r.layer["loadgen.samples.search"] = float64(len(win.search))
	r.layer["loadgen.samples.write"] = float64(len(win.write))
	r.layer["engine.deadline_overruns"] = float64(r.overruns)
	for _, code := range []string{"404", "429", "499", "503", "504", "5xx"} {
		r.layer["engine.status."+code] = float64(r.statuses[code])
	}
	r.layer["errors.failed_ratio"] = float64(r.failed) / float64(max(1, r.attempted))
}

// tally counts one operation against attempted/failed and classifies its
// failure, if any. An answer that arrives later than its deadline plus the
// configured slack is a deadline overrun, and a failure.
func (r *run) tally(o outcome) {
	r.attempted++
	overrun := o.Err == nil && !o.Dropped &&
		o.Done-o.Sent > (r.cfg.Query.TimeoutMS+r.cfg.Query.DeadlineSlackMS)*int64(time.Millisecond)
	if overrun {
		r.overruns++
	}
	if !o.failed() && !overrun {
		return
	}
	r.failed++
	if r.failed <= 5 {
		log.Printf("failed operation: status %d, err %v, dropped %v, overrun %v", o.Status, o.Err, o.Dropped, overrun)
	}
	switch {
	case o.Status >= 500 && o.Status != 503 && o.Status != 504:
		r.statuses["5xx"]++
	case o.Status != 0 && (o.Status < 200 || o.Status > 299):
		r.statuses[strconv.Itoa(o.Status)]++
	}
}

// recordCache derives the window's result-cache hit ratio from /metrics.
func (r *run) recordCache(before, after engine.Metrics) {
	hits := float64(counterDelta(before.CacheHits, after.CacheHits))
	misses := float64(counterDelta(before.CacheMisses, after.CacheMisses))
	r.layer["lru.hit_ratio"] = hits / math.Max(1, hits+misses)
}

// counterDelta is how much a /metrics counter grew over a window. A
// counter that went down was reset (a follower re-bootstrap replaces its
// graph), and then only its value after the reset counts.
func counterDelta(before, after uint64) uint64 {
	if after < before {
		return after
	}
	return after - before
}

// capacity walks the workload's ladder of offered rates (see capacity in
// stats.go), each rung a fresh open-loop stretch of the read stream.
func (r *run) capacity(writes *writeGen) float64 {
	rungSeconds := 2.0
	var rungs []rungResult
	c := capacity(r.w.Ladder, r.w.ladderStart(), func(rate float64) bool {
		// Rungs probe overload on purpose, so their operations are not
		// tallied as attempted or failed.
		win := r.drive(rate, rungSeconds, writes)
		var lat []float64
		for _, o := range win.search {
			lat = append(lat, o.latencyMs())
		}
		res := rungResult{Rate: rate, Tail: summarize(lat, 99), Backlog: win.backlog,
			Pass: rungPasses(lat, rate, r.w.P99LimitMS, win.backlog)}
		rungs = append(rungs, res)
		return res.Pass
	})
	r.detail("ladder", rungs)
	return c
}

// serverCPU is the user+system CPU time of the serving processes, in ms.
func (r *run) serverCPU() float64 {
	t := 0.0
	for _, p := range r.servers {
		t += p.cpuMillis()
	}
	return t
}

// residentMB sums the current resident set of processes. The end-to-end
// memory figure is this sum once set-up is complete, median over the
// set-ups: under traffic the resident set follows garbage-collector timing
// more than the program's footprint, so the window's median and peak are
// kept in the details instead.
func residentMB(ps ...*proc) float64 {
	var kb int64
	for _, p := range ps {
		kb += p.procStatusKB("VmRSS")
	}
	return float64(kb) / 1024
}

// stopMonitor records the window's memory and CPU-steal samples.
func (r *run) stopMonitor(m *monitor) {
	rss, steal := m.stop()
	r.detail("server_window_rss_mb", rss)
	r.detail("cpu_steal_share", steal)
	var kb int64
	for _, p := range r.servers {
		kb += p.procStatusKB("VmHWM")
	}
	r.detail("server_peak_rss_mb", float64(kb)/1024)
}

// --- write-mix.

func (r *run) bootCluster(gen int) (leader, follower, router *proc, ready, ckpt, boot float64, err error) {
	ldir := filepath.Join(r.dir, fmt.Sprintf("leader-%d", gen))
	fdir := filepath.Join(r.dir, fmt.Sprintf("follower-%d", gen))
	la, err1 := freeAddr()
	fa, err2 := freeAddr()
	ra, err3 := freeAddr()
	if err = firstErr(err1, err2, err3); err != nil {
		return
	}
	largs := append([]string{"-in", r.cols["dblp"].path, "-data-dir", ldir, "-addr", la}, r.w.LeaderFlags...)
	fargs := []string{"-follow", "http://" + la, "-data-dir", fdir, "-addr", fa}
	rargs := []string{"-leader", "http://" + la, "-replicas", "http://" + fa, "-listen", ra}
	r.flags = map[string][]string{"leader": largs, "follower": fargs, "router": rargs}

	t0 := time.Now()
	if leader, err = r.ps.start("leader", filepath.Join(r.bin, "acqd"), la, r.nproc, largs...); err != nil {
		return
	}
	if err = waitUntil(leader, 120*time.Second, "leader ready", func() bool { return healthyAt(leader.url, 0) }); err != nil {
		return
	}
	ready = time.Since(t0).Seconds()
	m, err := metricsOf(leader.url)
	if err != nil {
		return
	}
	ckpt = float64(m.Collections[engine.DefaultCollection].CheckpointNanos) / 1e9
	t1 := time.Now()
	if follower, err = r.ps.start("follower", filepath.Join(r.bin, "acqd"), fa, r.nproc, fargs...); err != nil {
		return
	}
	v := m.SnapshotVersion
	if err = waitUntil(follower, 120*time.Second, "follower bootstrap", func() bool { return healthyAt(follower.url, v) }); err != nil {
		return
	}
	boot = time.Since(t1).Seconds()
	if router, err = r.ps.start("router", filepath.Join(r.bin, "acqrouter"), ra, r.nproc, rargs...); err != nil {
		return
	}
	err = waitUntil(router, 30*time.Second, "router healthy", func() bool { return healthyAt(router.url, v) })
	return
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func (r *run) executeWriteMix() error {
	l := r.cols["dblp"]
	if err := l.readEdges(); err != nil {
		return err
	}
	wg := newWriteGen(r.seed^0x3a17e, l, r.cfg.Query.KMin)
	var times, readies, ckpts, boots, rss []float64
	var leader, follower, router *proc
	for i := 0; i < r.cfg.SetupRepeats; i++ {
		for _, p := range []*proc{router, follower, leader} {
			if p != nil {
				r.ps.kill(p)
			}
		}
		t0 := time.Now()
		var ready, ckpt, boot float64
		var err error
		leader, follower, router, ready, ckpt, boot, err = r.bootCluster(i)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		readies, ckpts, boots = append(readies, ready), append(ckpts, ckpt), append(boots, boot)
		rss = append(rss, residentMB(leader, follower, router))
	}
	r.e2e["setup_s"] = median(times)
	r.e2e["server_rss_mb"] = median(rss)
	r.layer["setup.server_ready_s"] = median(readies)
	r.layer["setup.checkpoint_s"] = median(ckpts)
	r.layer["setup.follower_bootstrap_s"] = median(boots)
	r.detail("setup_s_samples", times)
	r.servers = []*proc{leader, follower, router}
	r.base, r.leader, r.follower, r.leaderProc = router.url, leader.url, follower.url, leader

	if r.trace {
		if err := r.traceReplay(); err != nil {
			return err
		}
	}
	if err := r.checkProbes("before window", leader.url); err != nil {
		return err
	}
	if r.w.WarmupSeconds > 0 {
		r.drive(r.w.Rate, r.w.WarmupSeconds, nil)
	}
	lm0, err1 := metricsOf(leader.url)
	fm0, err2 := metricsOf(follower.url)
	if err := firstErr(err1, err2); err != nil {
		return err
	}
	var lagMax uint64
	stopLag := r.sampleLag(&lagMax)
	cpu0 := r.serverCPU()
	mon := startMonitor(r.servers)
	win := r.drive(r.w.Rate, r.windowSeconds(), wg)
	r.stopMonitor(mon)
	r.e2e["server_cpu_ms_per_op"] = (r.serverCPU() - cpu0) / float64(max(1, len(win.search)+len(win.write)))
	stopLag()
	lm1, err1 := metricsOf(leader.url)
	fm1, err2 := metricsOf(follower.url)
	if err := firstErr(err1, err2); err != nil {
		return err
	}
	r.recordWindow(win)
	r.recordCache(fm0, fm1)
	r.recordWrites(win, lm0, lm1, fm0, fm1, lagMax)
	r.serial()

	if r.trace {
		r.layer["capacity_qps"] = r.capacity(wg)
	}
	if err := r.checkConverged("after window"); err != nil {
		return err
	}
	if err := r.recover(wg); err != nil {
		return err
	}
	if err := r.checkConverged("after leader restart"); err != nil {
		return err
	}
	if r.trace {
		return r.probeWrites()
	}
	return nil
}

// sampleLag polls the follower's replication lag until the returned stop
// function is called; the maximum lands in *lagMax.
func (r *run) sampleLag(lagMax *uint64) (stop func()) {
	if !r.trace {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if m, err := metricsOf(r.follower); err == nil {
					if rs := m.Collections[engine.DefaultCollection].Replica; rs != nil && rs.LagOps > *lagMax {
						*lagMax = rs.LagOps
					}
				}
			}
		}
	}()
	return func() { close(done); <-finished }
}

func (r *run) recordWrites(win window, lm0, lm1, fm0, fm1 engine.Metrics, lagMax uint64) {
	var lat []float64
	for _, o := range win.write {
		lat = append(lat, o.latencyMs())
	}
	// A window holds about 30 batches, so the tails are at the highest
	// percentile up to p95 that leaves ten samples beyond it; the details
	// name that percentile and the count.
	ws := summarize(lat, 95)
	r.detail("write", ws)
	r.layer["write_p50_ms"], r.layer["write_tail_ms"] = ws.P50, ws.Tail
	gaps, missed := staleness(win.writeVersions, win.readVersions)
	ss := summarize(gaps, 95)
	r.detail("staleness", map[string]any{"summary": ss, "writes_never_seen": missed})
	r.layer["staleness_p50_ms"], r.layer["staleness_tail_ms"] = ss.P50, ss.Tail

	l0, l1 := lm0.Collections[engine.DefaultCollection], lm1.Collections[engine.DefaultCollection]
	f0, f1 := fm0.Collections[engine.DefaultCollection], fm1.Collections[engine.DefaultCollection]
	r.layer["write.effective_ops"] = float64(counterDelta(l0.Updates, l1.Updates))
	r.layer["write.delta_publishes"] = float64(counterDelta(l0.DeltaPublishes, l1.DeltaPublishes))
	r.layer["write.full_publishes"] = float64(counterDelta(l0.FullPublishes, l1.FullPublishes))
	r.layer["write.compactions"] = float64(counterDelta(l0.CompactionsTotal, l1.CompactionsTotal))
	r.layer["checkpoint.count"] = float64(counterDelta(l0.CheckpointsTotal, l1.CheckpointsTotal))
	if f0.Replica != nil && f1.Replica != nil {
		r.layer["replica.applied_ops"] = float64(counterDelta(f0.Replica.AppliedOps, f1.Replica.AppliedOps))
		r.layer["replica.bootstraps"] = float64(f1.Replica.Bootstraps)
	}
	r.layer["replica.lag_ops_max"] = float64(lagMax)
}

// recover measures leader crash recovery: checkpoint, write a fixed number
// of batches (so each restart replays the same WAL tail), SIGKILL the
// leader, restart it with the same flags, and time until it is ready at the
// last acknowledged version. The median of several rounds is kept.
func (r *run) recover(wg *writeGen) error {
	var times []float64
	lane := &httpLane{hc: newHTTPClient(1, 30*time.Second)}
	for i := 0; i < r.w.RecoveryRepeats; i++ {
		if st, err := post(r.leader + "/v1/collections/default/checkpoint"); err != nil || st != http.StatusOK {
			return fmt.Errorf("checkpoint before crash: status %d: %v", st, err)
		}
		var last uint64
		for b := 0; b < r.w.RecoveryBatches; b++ {
			st, err := lane.post(r.leader+"/v1/mutations", encodeMutations(wg.batch()))
			if err != nil || st != http.StatusOK {
				return fmt.Errorf("write before crash: status %d: %v", st, err)
			}
			last = bodyVersion(lane.buf.Bytes())
		}
		old := r.leaderProc
		t0 := time.Now()
		r.ps.kill(old)
		addr := strings.TrimPrefix(old.url, "http://")
		p, err := r.ps.start("leader", old.bin, addr, r.nproc, old.args...)
		if err != nil {
			return err
		}
		if err := waitUntil(p, 120*time.Second, "leader recovery", func() bool { return healthyAt(p.url, last) }); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		r.leaderProc = p
		r.servers[0] = p
	}
	lane.hc.CloseIdleConnections()
	r.layer["recovery_s"] = median(times)
	r.detail("recovery_s_samples", times)
	return nil
}

// checkConverged waits for the follower to reach the leader's version and
// then requires both to answer the probe set identically.
func (r *run) checkConverged(when string) error {
	var lh healthz
	if _, err := getJSON(r.leader+"/healthz", &lh); err != nil {
		return err
	}
	if err := waitUntil(nil, 60*time.Second, "follower catch-up", func() bool { return healthyAt(r.follower, lh.Version) }); err != nil {
		return err
	}
	var fh healthz
	if _, err := getJSON(r.follower+"/healthz", &fh); err != nil {
		return err
	}
	if fh.Version != lh.Version {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf("%s: follower at version %d, leader at %d", when, fh.Version, lh.Version))
		return nil
	}
	lr, err := r.answers(r.leader)
	if err != nil {
		return err
	}
	fr, err := r.answers(r.follower)
	if err != nil {
		return err
	}
	for i := range r.probes {
		if msg := diffAnswers(lr[i], fr[i]); msg != "" {
			r.checkFailures = append(r.checkFailures, fmt.Sprintf("%s: probe %d: leader and follower differ at version %d: %s", when, i, lh.Version, msg))
		}
	}
	log.Printf("%s: leader and follower agree on %d probes at version %d", when, len(r.probes), lh.Version)
	return nil
}

// serialShare is the serial phase's share of --seconds; the open-loop
// window before it takes the rest.
const serialShare = 1.0 / 3

func (r *run) windowSeconds() float64 { return r.seconds * (1 - serialShare) }

// serial sends fresh searches one at a time over one connection, each as
// soon as the answer to the one before it has been read, and records their
// latencies as the gated search_serial_p25_ms. Each search is timed from
// its send. The queries come from a distinct stream of their own on every
// workload, read in whole rounds (see stream.round) until the phase's share
// of --seconds has passed, so every run asks the same mix of mode, k and S.
//
// Open-loop latency on a shared 2-vCPU host moves with the host's load more
// than the program does: a light search waits behind a heavy one whenever
// the two overlap, and every request wakes idle threads. Between runs at
// under 1% and at 8-24% CPU steal, read-distinct's open-loop lower quartile
// rose 28-98%, this one 15-23% and CPU time per operation 11-16%.
// Pooled queries would make the figure depend on which queries a seed made
// hot: over write-mix's pool it read 0.28 ms on one seed and 0.41-0.46 ms
// on another. Every search counts as attempted, and a failed one as failed.
func (r *run) serial() {
	st := r.stream.fresh(r.seed ^ 0x5e41a1)
	hc := newHTTPClient(1, 10*time.Second)
	defer hc.CloseIdleConnections()
	l := &httpLane{hc: hc}
	end := r.now() + int64(r.seconds*serialShare*float64(time.Second))
	var lat []float64
	for r.now() < end {
		for i := st.round(); i > 0; i-- {
			q := st.next()
			o := outcome{Sent: r.now()}
			o.Intended, o.Dispatched = o.Sent, o.Sent
			o.Status, o.Err = l.post(r.base+"/v1/collections/"+r.colPath(q.Collection)+"/search", q.Body)
			o.Done = r.now()
			if o.Err == nil && o.Status != http.StatusOK {
				o.Err = fmt.Errorf("search %s: %s", q.Body, errorBody(l.buf.Bytes()))
			}
			r.tally(o)
			lat = append(lat, o.latencyMs())
		}
	}
	s := summarize(lat, 99)
	r.e2e["search_serial_p25_ms"] = s.P25
	r.layer["loadgen.samples.serial"] = float64(s.N)
	r.detail("search_serial", s)
	if n := s.N + int(r.layer["loadgen.samples.search"]); n < 1000 {
		log.Printf("warning: only %d searches in the run (want ≥ 1000)", n)
	}
}
