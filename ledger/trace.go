package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	acq "github.com/acq-search/acq"
	"github.com/acq-search/acq/engine"
)

// tracer keeps spans in memory; report writes them out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

// timed runs f inside a span and returns it.
func (t *tracer) timed(name string, req int, parent string, f func()) span {
	s := span{Name: name, ReqID: req, Parent: parent, Start: int64(time.Since(t.epoch))}
	f()
	s.End = int64(time.Since(t.epoch))
	t.spans = append(t.spans, s)
	return s
}

// allocs measures heap allocations and bytes of one call by MemStats
// deltas; the reads stay outside any span.
func allocs(f func()) (n, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// sampleSet accumulates per-layer samples by metric name.
type sampleSet map[string][]float64

func (s sampleSet) add(name string, v float64) { s[name] = append(s[name], v) }

// replayReads replays the first requests of the workload's stream one at a
// time through each layer's public entry point in turn, on the same
// request id:
//
//	eval    acq.Snapshot.Search, result cache off (the reference copy)
//	lru     acq.Snapshot.Search, result cache on (its own copy), then the
//	        same call again, which must hit
//	engine  engine.New(...).Handler(), in process (its own copy)
//	http    loopback HTTP to acqd (the follower in write-mix)
//	router  acqrouter in front of it, then http again as its lower layer
//
// Every copy with a cache sees the same request sequence, so a request that
// misses (or hits) one cache does so in all of them, and a layer's self
// time is its span minus the span of the layer below on the same request.
func (r *run) replayReads(direct, router string) error {
	ctx := context.Background()
	tc := map[string]*loaded{}
	eng := engine.New(nil, engine.Config{Logf: func(string, ...any) {}})
	defer eng.Close()
	for _, c := range r.w.Collections {
		l, err := loadGraph(r.cols[c].path, 0)
		if err != nil {
			return err
		}
		tc[c] = l
		e, err := loadGraph(r.cols[c].path, 0)
		if err != nil {
			return err
		}
		if _, err := eng.AddCollection(r.colPath(c), e.g); err != nil {
			return err
		}
	}
	h := eng.Handler()
	lane := &httpLane{hc: newHTTPClient(1, 30*time.Second)}
	defer lane.hc.CloseIdleConnections()

	// Pooled workloads warm every cache with the same untimed prefix.
	n := r.w.TraceRequests
	warm := 0
	if r.w.PoolPerCollection > 0 {
		warm = n
	}
	reqs := r.stream.take(warm + n)
	s := sampleSet{}
	var members, resultBytes, respBytes []float64
	var overheadOn, overheadOff []float64
	for i, q := range reqs {
		traced := i >= warm
		c := q.Collection
		path := "/v1/collections/" + r.colPath(c) + "/search"
		snap := r.cols[c].g.Snapshot()
		csnap := tc[c].g.Snapshot()
		if !traced {
			// Only the layers with a cache need to see the warm-up prefix.
			csnap.Search(ctx, q.Q)
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(q.Body)))
			if st, err := lane.post(direct+path, q.Body); err != nil || st != http.StatusOK {
				return fmt.Errorf("replay warm-up %d: HTTP status %d: %v", i, st, err)
			}
			continue
		}
		root := span{Name: "request", ReqID: i, Start: int64(time.Since(r.tr.epoch))}

		var res acq.Result
		var err error
		evalName := "eval." + string(q.Q.Mode)
		ev := r.tr.timed(evalName, i, "request", func() { res, err = snap.Search(ctx, q.Q) })
		if err != nil {
			return fmt.Errorf("replay %d (%s on %s): in-process search: %w", i, q.Q.Mode, c, err)
		}
		h0, _ := tc[c].g.ResultCacheStats()
		lr := r.tr.timed("lru", i, "request", func() { _, err = csnap.Search(ctx, q.Q) })
		h1, _ := tc[c].g.ResultCacheStats()
		if err != nil {
			return fmt.Errorf("replay %d (%s on %s): in-process cached search: %w", i, q.Q.Mode, c, err)
		}
		hit := r.tr.timed("lru.hit", i, "request", func() { csnap.Search(ctx, q.Q) })
		rec := httptest.NewRecorder()
		hr := r.tr.timed("engine.handler", i, "request", func() {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(q.Body)))
		})
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay %d: in-process handler answered %d: %s", i, rec.Code, rec.Body.String())
		}
		var st int
		ht := r.tr.timed("http", i, "request", func() { st, err = lane.post(direct+path, q.Body) })
		if err != nil || st != http.StatusOK {
			return fmt.Errorf("replay %d: HTTP status %d: %v", i, st, err)
		}
		rt := r.tr.timed("router", i, "request", func() { st, err = lane.post(router+path, q.Body) })
		if err != nil || st != http.StatusOK {
			return fmt.Errorf("replay %d: router status %d: %v", i, st, err)
		}
		below := r.tr.timed("http.below_router", i, "router", func() { st, err = lane.post(direct+path, q.Body) })
		if err != nil || st != http.StatusOK {
			return fmt.Errorf("replay %d: HTTP status %d: %v", i, st, err)
		}
		root.End = int64(time.Since(r.tr.epoch))
		r.tr.spans = append(r.tr.spans, root)

		us := func(sp span) float64 { return float64(sp.dur()) / 1e3 }
		s.add(evalName+".us", us(ev))
		if h1 == h0 {
			// Two first calls on two copies of the graph: the difference
			// is a few microseconds of cache bookkeeping under memory-layout
			// noise of the same size, so it can read negative.
			s.add("lru.miss_overhead.us", float64(layerSelf(lr, ev))/1e3)
		}
		s.add("lru.hit.us", us(hit))
		s.add("engine.handler.us", us(hr))
		s.add("engine.self.us", float64(layerSelf(hr, lr))/1e3)
		s.add("http.rtt.us", us(ht))
		s.add("http.self.us", float64(layerSelf(ht, hr))/1e3)
		s.add("router.self.us", float64(layerSelf(rt, below))/1e3)

		// Allocation counts, each from a separate call of the same layer
		// (the caches answer these repeats as hits; the cache-off
		// evaluation recomputes).
		a, b := allocs(func() { snap.Search(ctx, q.Q) })
		s.add(evalName+".allocs", float64(a))
		s.add(evalName+".bytes", float64(b))
		a, _ = allocs(func() { csnap.Search(ctx, q.Q) })
		s.add("lru.hit.allocs", float64(a))
		rec2 := httptest.NewRecorder()
		a, _ = allocs(func() { h.ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(q.Body))) })
		s.add("engine.allocs", float64(a))
		respBytes = append(respBytes, float64(rec.Body.Len()))
		m := 0
		for _, cm := range res.Communities {
			m += len(cm.Members)
		}
		members = append(members, float64(m))
		if jb, err := json.Marshal(res); err == nil {
			resultBytes = append(resultBytes, float64(len(jb)))
		}

		// Tracing overhead: the same loopback request timed with and
		// without a span recorded around it, alternating which goes first.
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				t0 := time.Now()
				r.tr.timed("http.overhead_probe", i, "request", func() { lane.post(direct+path, q.Body) })
				overheadOn = append(overheadOn, float64(time.Since(t0).Nanoseconds()))
			} else {
				t0 := time.Now()
				lane.post(direct+path, q.Body)
				overheadOff = append(overheadOff, float64(time.Since(t0).Nanoseconds()))
			}
		}
	}

	for _, mode := range r.cfg.Query.Modes {
		name := "eval." + mode.Mode
		sm := summarize(s[name+".us"], 99)
		r.layer[name+".p50_us"] = sm.P50
		r.layer[name+".p99_us"] = sm.Tail
		r.layer[name+".allocs_per_op"] = mean(s[name+".allocs"])
		r.layer[name+".bytes_per_op"] = mean(s[name+".bytes"])
		r.detail(name, sm)
	}
	r.layer["eval.members_per_result"] = mean(members)
	r.layer["eval.result_json_bytes"] = mean(resultBytes)
	r.layer["lru.hit_p50_us"] = median(s["lru.hit.us"])
	r.layer["lru.hit_allocs_per_op"] = mean(s["lru.hit.allocs"])
	r.layer["lru.miss_overhead_us"] = median(s["lru.miss_overhead.us"])
	hs := summarize(s["engine.handler.us"], 99)
	r.layer["engine.handler_p50_us"] = hs.P50
	r.layer["engine.handler_p99_us"] = hs.Tail
	r.layer["engine.self_p50_us"] = median(s["engine.self.us"])
	r.layer["engine.allocs_per_op"] = mean(s["engine.allocs"])
	r.layer["engine.response_bytes_mean"] = mean(respBytes)
	r.layer["http.rtt_p50_us"] = median(s["http.rtt.us"])
	r.layer["http.self_p50_us"] = median(s["http.self.us"])
	r.layer["router.self_p50_us"] = median(s["router.self.us"])
	on, off := median(overheadOn), median(overheadOff)
	r.layer["trace.overhead_pct"] = 100 * (on - off) / off
	r.detail("replay_requests", n)
	return nil
}

// copyDir copies the regular files of a durability directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// probeWrites replays write-mix's batch stream in process on a fresh dblp
// copy through acq.Graph.ApplyMutations, Checkpoint, OpenDurable and
// ApplyReplicated, and records the write, durability and replica layers.
// It runs on every workload's traced run with the same seeded stream, so
// those layers carry a figure everywhere; on the read workloads it is the
// only write traffic.
func (r *run) probeWrites() error {
	ref := r.cols["dblp"]
	if ref == nil {
		return fmt.Errorf("the write probe needs dblp among the collections")
	}
	if ref.edges == nil {
		if err := ref.readEdges(); err != nil {
			return err
		}
	}
	l, err := loadGraph(ref.path, 0)
	if err != nil {
		return err
	}
	g := l.g
	dir := filepath.Join(r.dir, "probe-leader")
	opts := acq.DurableOptions{Dir: dir, SyncMode: "always", CheckpointEvery: -1}
	var ckptErr error
	first := r.tr.timed("checkpoint.initial", 0, "", func() { ckptErr = g.EnableDurability(opts) })
	if ckptErr != nil {
		return ckptErr
	}
	g.SetCompactionThreshold(1 << 30) // compactions below are explicit and timed
	wgen := newWriteGen(r.seed^0x3a17e, ref, r.cfg.Query.KMin)
	s := sampleSet{}
	var walBytes, userBytes, storedBytes, ops float64
	storedBytes = float64(fileSize(filepath.Join(dir, "snapshot.acqm")))
	apply := func(req int, batch []acq.Mutation, name string) error {
		w0 := g.DurabilityStats().WALBytes
		var res []acq.MutationResult
		sp := r.tr.timed(name, req, "", func() { res = g.ApplyMutations(batch) })
		for j, m := range res {
			if m.Err != nil || !m.Changed {
				return fmt.Errorf("write probe op %d (%s): changed=%v err=%v", j, batch[j].Op, m.Changed, m.Err)
			}
		}
		g.Snapshot() // a reader, as on a serving leader: the next write publishes eagerly
		walBytes += float64(g.DurabilityStats().WALBytes - w0)
		userBytes += float64(len(encodeMutations(batch)))
		ops += float64(len(batch))
		s.add(name, float64(sp.dur())/1e6)
		return nil
	}
	checkpoint := func(req int) error {
		var err error
		sp := r.tr.timed("checkpoint", req, "", func() { err = g.Checkpoint() })
		s.add("checkpoint", float64(sp.dur())/1e6)
		storedBytes += float64(fileSize(filepath.Join(dir, "snapshot.acqm")))
		return err
	}

	const nb = 32 // batches in the probe's main stream
	for b := 0; b < nb; b++ {
		batch := wgen.batch()
		var err error
		a, _ := allocs(func() { err = apply(b, batch, "write.batch") })
		if err != nil {
			return err
		}
		s.add("write.allocs", float64(a))
		if b%8 == 7 {
			sp := r.tr.timed("write.compaction", b, "", func() { g.Compact() })
			s.add("write.compaction", float64(sp.dur())/1e6)
		}
		if b%12 == 11 {
			if err := checkpoint(b); err != nil {
				return err
			}
		}
	}
	// Single operations, split out of further batches.
	for b := 0; b < 4; b++ {
		for j, m := range wgen.batch() {
			name := "write.keyword_op"
			if m.Op == acq.OpInsertEdge || m.Op == acq.OpRemoveEdge {
				name = "write.edge_op"
			}
			if err := apply(nb+b*8+j, []acq.Mutation{m}, name); err != nil {
				return err
			}
		}
	}
	if err := checkpoint(nb + 32); err != nil {
		return err
	}
	// A clean mapped open of the checkpoint, which also seeds the replica.
	cleanDir := filepath.Join(r.dir, "probe-clean")
	if err := copyDir(dir, cleanDir); err != nil {
		return err
	}
	var follower *acq.Graph
	om := r.tr.timed("dataio.open_mapped", 0, "", func() {
		follower, err = acq.OpenDurable(acq.DurableOptions{Dir: cleanDir, SyncMode: "never", CheckpointEvery: -1})
	})
	if err != nil {
		return err
	}
	from := follower.Version()
	// A WAL tail, then a recovery that must replay it.
	for b := 0; b < 8; b++ {
		if err := apply(nb+40+b, wgen.batch(), "write.batch"); err != nil {
			return err
		}
	}
	tailDir := filepath.Join(r.dir, "probe-tail")
	if err := copyDir(dir, tailDir); err != nil {
		return err
	}
	var replayed *acq.Graph
	rp := r.tr.timed("wal.replay", 0, "", func() {
		replayed, err = acq.OpenDurable(acq.DurableOptions{Dir: tailDir, SyncMode: "never", CheckpointEvery: -1})
	})
	if err != nil {
		return err
	}
	if replayed.Version() != g.Version() {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf("write probe: WAL replay reached version %d, leader is at %d", replayed.Version(), g.Version()))
	}
	// The replica applies the leader's tail batch by batch.
	tail, err := g.ReplicationTail(from, 1<<20)
	if err != nil {
		return err
	}
	for i, b := range tail.Batches {
		var aerr error
		sp := r.tr.timed("replica.apply_batch", i, "", func() { aerr = follower.ApplyReplicated(b) })
		if aerr != nil {
			return fmt.Errorf("ApplyReplicated batch %d: %w", i, aerr)
		}
		s.add("replica.apply_batch", float64(sp.dur())/1e6)
	}
	if follower.Version() != g.Version() {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf("write probe: replica reached version %d, leader is at %d", follower.Version(), g.Version()))
	}
	// What a follower bootstrap does with the leader's snapshot: ship the
	// blob, store it, open it mapped.
	bootDir := filepath.Join(r.dir, "probe-boot")
	bs := r.tr.timed("replica.bootstrap", 0, "", func() { err = bootstrapFrom(g, bootDir) })
	if err != nil {
		return err
	}

	wb := summarize(s["write.batch"], 75)
	r.layer["write.batch_p50_ms"] = wb.P50
	r.layer["write.batch_p75_ms"] = wb.Tail
	r.layer["write.edge_op_p50_ms"] = median(s["write.edge_op"])
	r.layer["write.keyword_op_p50_us"] = median(s["write.keyword_op"]) * 1e3
	r.layer["write.allocs_per_batch"] = mean(s["write.allocs"])
	r.layer["write.compaction_ms_mean"] = mean(s["write.compaction"])
	r.layer["wal.bytes_per_op"] = walBytes / ops
	r.layer["storage.bytes_written_per_user_byte"] = (walBytes + storedBytes) / userBytes
	r.layer["checkpoint.ms_mean"] = mean(s["checkpoint"])
	r.layer["dataio.open_mapped_ms"] = float64(om.dur()) / 1e6
	r.layer["wal.replay_ms"] = float64(rp.dur()) / 1e6
	r.layer["replica.apply_batch_p50_ms"] = median(s["replica.apply_batch"])
	if !r.w.writes() {
		// No cluster on the read workloads: the set-up layers they lack
		// are taken from the probe's own checkpoint and bootstrap.
		r.layer["setup.checkpoint_s"] = float64(first.dur()) / 1e9
		r.layer["setup.follower_bootstrap_s"] = float64(bs.dur()) / 1e9
	}
	r.detail("write_probe", map[string]any{"batches": len(s["write.batch"]), "batch": wb, "replicated_batches": len(tail.Batches)})
	return nil
}

// bootstrapFrom stores g's snapshot blob as a durability directory and
// opens it, the library half of a follower bootstrap.
func bootstrapFrom(g *acq.Graph, dir string) error {
	rc, _, _, err := g.SnapshotBlob()
	if err != nil {
		return err
	}
	defer rc.Close()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "snapshot.acqm"))
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, rc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = acq.OpenDurable(acq.DurableOptions{Dir: dir, SyncMode: "never", CheckpointEvery: -1})
	return err
}

// traceReplay fills the per-layer metrics that need the read replay: it
// starts a router where the workload has none and replays reads through
// every layer.
func (r *run) traceReplay() error {
	router := r.base
	direct := r.leader
	if r.w.writes() {
		direct = r.follower
	} else {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		p, err := r.ps.start("router", filepath.Join(r.bin, "acqrouter"), addr, r.nproc, "-leader", r.leader, "-listen", addr)
		if err != nil {
			return err
		}
		defer r.ps.kill(p)
		if err := waitUntil(p, 30*time.Second, "router healthy", func() bool {
			st, err := getJSON(p.url+"/v1/collections", nil)
			return err == nil && st == http.StatusOK
		}); err != nil {
			return err
		}
		router = p.url
		r.flags["router (trace only)"] = []string{"-leader", r.leader, "-listen", addr}
	}
	return r.replayReads(direct, router)
}
