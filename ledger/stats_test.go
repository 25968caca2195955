package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	acq "github.com/acq-search/acq"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, got  float64
		wantBeyond int
	}{
		{n: 1000, want: 99, got: 99, wantBeyond: 10},
		{n: 5000, want: 99, got: 99, wantBeyond: 50},
		{n: 500, want: 99, got: 98, wantBeyond: 10},
		{n: 200, want: 95, got: 95, wantBeyond: 10},
		{n: 120, want: 90, got: 90, wantBeyond: 12},
		{n: 40, want: 75, got: 75, wantBeyond: 10},
		{n: 100, want: 99, got: 90, wantBeyond: 10},
		{n: 20, want: 99, got: 50, wantBeyond: 10},
		{n: 3, want: 99, got: 50, wantBeyond: 1},
	} {
		p := supportedPercentile(c.n, c.want)
		if math.Abs(p-c.got) > 1e-9 {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, p, c.got)
		}
		// The reported rank must leave the promised samples above it.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		s := summarize(xs, c.want)
		if beyond := c.n - int(s.Tail); beyond < c.wantBeyond {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond it, want ≥ %d", c.n, s.TailPct, s.Tail, beyond, c.wantBeyond)
		}
		if want := math.Ceil(float64(c.n) / 4); s.P25 != want {
			t.Errorf("n=%d: p25 = %v, want %v", c.n, s.P25, want)
		}
		if s.N != c.n {
			t.Errorf("summary reports %d samples, want %d", s.N, c.n)
		}
		t.Logf("n=%d: reported p%.2f (asked p%v)", c.n, s.TailPct, c.want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 100: 10, 10: 1, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// A request that waits in the generator's queue behind a busy connection is
// timed from its scheduled send time, not from when it was finally sent.
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	const service = 30 * time.Millisecond
	epoch := time.Now()
	out, _, pendingMax := openLoop(epoch, evenly(100, 10), 1, time.Second, func(i int, o *outcome) {
		time.Sleep(service)
		o.Status = 200
	})
	for i, o := range out {
		// Due every 10 ms, served one at a time in 30 ms: request i
		// completes no earlier than (i+1)·30 ms after the first was due,
		// so its latency is at least 20i+30 ms.
		min := float64(20*i + 30)
		if got := o.latencyMs(); got < min {
			t.Errorf("request %d: latency %.1f ms, want ≥ %.0f (queueing in the generator must count)", i, got, min)
		}
		if served := float64(o.Done-o.Sent) / 1e6; i > 0 && o.latencyMs() <= served {
			t.Errorf("request %d: latency %.1f ms does not exceed its service time %.1f ms", i, o.latencyMs(), served)
		}
		if o.Intended != out[0].Intended+int64(i)*int64(10*time.Millisecond) {
			t.Errorf("request %d: intended at %d, not on the 10 ms schedule", i, o.Intended)
		}
	}
	if pendingMax < 5 {
		t.Errorf("pendingMax = %d, want the queue to have built up", pendingMax)
	}
}

func TestOpenLoopDropsWhatCannotDrain(t *testing.T) {
	out, backlog, _ := openLoop(time.Now(), evenly(1000, 40), 1, 50*time.Millisecond, func(i int, o *outcome) {
		if o.Dropped {
			return
		}
		time.Sleep(20 * time.Millisecond)
		o.Status = 200
	})
	dropped := 0
	for _, o := range out {
		if o.Dropped {
			dropped++
			if !math.IsInf(o.latencyMs(), 1) {
				t.Error("a dropped request must count as infinitely late")
			}
		}
	}
	if backlog == 0 || dropped == 0 {
		t.Errorf("backlog %d, dropped %d: an overloaded schedule must leave a backlog and drop it", backlog, dropped)
	}
}

func TestOutcomeFailures(t *testing.T) {
	for _, o := range []outcome{{Status: 503}, {Status: 404}, {Err: errors.New("reset")}, {Status: 200, Dropped: true}} {
		if !o.failed() || !math.IsInf(o.latencyMs(), 1) {
			t.Errorf("%+v should fail with infinite latency", o)
		}
	}
	if o := (outcome{Status: 200, Intended: 0, Done: 2e6}); o.failed() || o.latencyMs() != 2 {
		t.Errorf("a 200 after 2 ms: failed=%v latency=%v", o.failed(), o.latencyMs())
	}
}

func TestRungPassesCountsFailuresAsMisses(t *testing.T) {
	fast := make([]float64, 1000)
	for i := range fast {
		fast[i] = 1
	}
	if !rungPasses(fast, 500, 10, 0) {
		t.Fatal("all-fast rung should pass")
	}
	withFailures := append([]float64(nil), fast...)
	for i := 0; i < 20; i++ { // 2% failed: beyond what p99 can hide
		withFailures[i] = math.Inf(1)
	}
	if rungPasses(withFailures, 500, 10, 0) {
		t.Error("a rung with 2% failures passed a p99 limit")
	}
	fewFailures := append([]float64(nil), fast...)
	for i := 0; i < 5; i++ { // 0.5%: within the p99 allowance
		fewFailures[i] = math.Inf(1)
	}
	if !rungPasses(fewFailures, 500, 10, 0) {
		t.Error("0.5% failures should still meet a p99 limit")
	}
	if rungPasses(fast, 500, 10, 6) {
		t.Error("a rung that ended with a backlog above rate·limit passed")
	}
	if rungPasses(nil, 500, 10, 0) {
		t.Error("a rung with no samples passed")
	}
}

func TestCapacityLadder(t *testing.T) {
	ladder := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		limit float64 // highest passing rate
		start int
		want  float64
	}{
		{limit: 55, start: 4, want: 50},
		{limit: 55, start: 0, want: 50},
		{limit: 55, start: 9, want: 50},
		{limit: 10, start: 5, want: 10},
		{limit: 5, start: 5, want: 0},
		{limit: 1000, start: 2, want: 100},
		{limit: 95, start: 3, want: 90},
	} {
		probes := 0
		got := capacity(ladder, c.start, func(rate float64) bool { probes++; return rate <= c.limit })
		if got != c.want {
			t.Errorf("limit %v from rung %d: capacity %v, want %v", c.limit, c.start, got, c.want)
		}
		if probes > 7 {
			t.Errorf("limit %v from rung %d: %d probes for a 10-rung ladder", c.limit, c.start, probes)
		}
	}
	// Failures make a rung miss, so a rate where requests fail is never
	// capacity even when the rest are fast.
	got := capacity(ladder, 0, func(rate float64) bool {
		lat := make([]float64, 1000)
		for i := range lat {
			lat[i] = 1
			if rate >= 70 && i%20 == 0 { // 5% refused above 60/s
				lat[i] = math.Inf(1)
			}
		}
		return rungPasses(lat, rate, 10, 0)
	})
	if got != 60 {
		t.Errorf("capacity with refusals above 60/s = %v, want 60", got)
	}
}

func TestLayerSelf(t *testing.T) {
	handler := span{Name: "engine.handler", Start: 100, End: 400}
	search := span{Name: "lru", Start: 1000, End: 1250}
	if got := layerSelf(handler, search); got != 50 {
		t.Errorf("self time %d, want 300-250 = 50", got)
	}
	// Noise can make the layer below slower on its own call; the
	// difference is reported as measured, not clamped.
	if got := layerSelf(span{Start: 0, End: 100}, span{Start: 0, End: 120}); got != -20 {
		t.Errorf("self time %d, want -20", got)
	}
}

func TestStaleness(t *testing.T) {
	acks := []versionAt{{At: 100e6, Version: 5}, {At: 200e6, Version: 6}, {At: 300e6, Version: 9}}
	reads := []versionAt{
		{At: 90e6, Version: 4}, {At: 150e6, Version: 5}, {At: 180e6, Version: 6}, // 6 seen before its ack
		{At: 400e6, Version: 5}, {At: 450e6, Version: 8}, // running max, not the last read
	}
	gaps, missed := staleness(acks, reads)
	if want := []float64{50, 0}; fmt.Sprint(gaps) != fmt.Sprint(want) || missed != 1 {
		t.Errorf("staleness = %v (missed %d), want %v (missed 1)", gaps, missed, want)
	}
}

func TestBodyVersion(t *testing.T) {
	for body, want := range map[string]uint64{
		`{"result":{"Communities":[]},"version":42}` + "\n": 42,
		`{"applied":8,"results":[],"version":7}`:            7,
		`{"error":{"code":"x"}}`:                            0,
	} {
		if got := bodyVersion([]byte(body)); got != want {
			t.Errorf("bodyVersion(%s) = %d, want %d", body, got, want)
		}
	}
}

// Every batch the write generator produces must change the graph when the
// batches are applied in order, however long the run, and must leave every
// vertex's k-cores for k ≥ kmin intact: the stationary stream on which
// write-mix's queries keep their answers.
func TestWriteGenEveryOpChanges(t *testing.T) {
	b := acq.NewBuilder()
	// A dense circulant (core number 6) and a sparse ring around it (core
	// number 3), each ring vertex tied to one dense vertex.
	const n, ring, kmin = 60, 40, 6
	for i := 0; i < n+ring; i++ {
		b.AddVertex(fmt.Sprintf("v%d", i), "a", "b", fmt.Sprintf("k%d", i%7))
	}
	var edges [][2]int32
	add := func(u, v int32) {
		b.AddEdge(u, v)
		edges = append(edges, [2]int32{u, v})
	}
	for i := int32(0); i < n; i++ {
		for _, d := range []int32{1, 2, 5} {
			add(i, (i+d)%n)
		}
	}
	for i := int32(0); i < ring; i++ {
		add(n+i, n+(i+1)%ring)
		add(n+i, i)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIndex()
	l := &loaded{g: g, edges: edges}
	if err := l.indexCores(kmin); err != nil {
		t.Fatal(err)
	}
	if len(l.byCore[kmin]) != n {
		t.Fatalf("%d vertices with core ≥ %d, want the %d dense ones", len(l.byCore[kmin]), kmin, n)
	}
	w := newWriteGen(7, l, kmin)
	for i := 0; i < 200; i++ {
		ops := w.batch()
		if len(ops) != 8 {
			t.Fatalf("batch %d has %d ops", i, len(ops))
		}
		for j, res := range g.ApplyMutations(ops) {
			if res.Err != nil || !res.Changed {
				t.Fatalf("batch %d op %d %+v: changed=%v err=%v", i, j, ops[j], res.Changed, res.Err)
			}
		}
		s := g.Snapshot()
		for _, v := range l.byCore[kmin] {
			if c, err := s.CoreNumber(v); err != nil || c < kmin {
				t.Fatalf("after batch %d vertex %d has core number %d (err %v), below %d", i, v, c, err, kmin)
			}
		}
	}
	if got := g.NumEdges(); got != len(edges) {
		t.Errorf("after 200 batches the graph has %d edges, started with %d", got, len(edges))
	}
}

// Every metric BENCHMARK.json declares is printed with the unit it declares.
func TestBenchmarkJSONUnits(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above the ledger directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if got := unitOf(m.Name); got != m.Unit {
			t.Errorf("%s: printed in %q, BENCHMARK.json says %q", m.Name, got, m.Unit)
		}
	}
}

// An empty label or member list is the same answer whether the server
// encoded it as [] or as null.
func TestCanonEmptyListsEqual(t *testing.T) {
	fresh := acq.Result{LabelSize: 0, Communities: []acq.Community{{Label: []string{}, Members: []string{"a"}, MemberIDs: []int32{1}}}}
	cached := acq.Result{LabelSize: 0, Communities: []acq.Community{{Label: nil, Members: []string{"a"}, MemberIDs: []int32{1}}}}
	if canon(fresh) != canon(cached) {
		t.Errorf("canon distinguishes [] from null: %s vs %s", canon(fresh), canon(cached))
	}
	other := acq.Result{Communities: []acq.Community{{Label: []string{"x"}, Members: []string{"a"}, MemberIDs: []int32{1}}}}
	if msg := diffAnswers(answer{Status: 200, Result: fresh}, answer{Status: 200, Result: other}); msg == "" {
		t.Error("different labels compared equal")
	}
}

// A round of a stream holds every collection's stratified block once, so
// the serial phase, which reads whole rounds, asks the same mix of mode, k
// and S in every run.
func TestRoundHoldsWholeBlocks(t *testing.T) {
	cfg, err := loadConfig("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	g := &queryGen{qc: cfg.Query, rng: newRand(1)}
	if got, want := g.blockLen(), len(g.block()); got != want {
		t.Fatalf("blockLen() = %d, a block holds %d cells", got, want)
	}
	s := (&stream{gen: g, cols: []string{"a", "b", "c"}}).fresh(2)
	if got, want := s.round(), 3*len(g.block()); got != want {
		t.Errorf("round() = %d, want %d", got, want)
	}
}
