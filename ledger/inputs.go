package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	acq "github.com/acq-search/acq"
)

// ensureGraph writes the named synthetic preset as a text graph under dir
// unless it is already there, and returns its path. Presets are
// deterministic, so a file left by an earlier run is the same input.
func ensureGraph(dir, name string, scale float64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s@%g.txt", name, scale))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	g, err := acq.Synthetic(name, scale)
	if err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := g.Save(w); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

// loaded is the benchmark's own in-process copy of one collection.
type loaded struct {
	g           *acq.Graph
	load, index time.Duration
	byCore      [][]int32 // byCore[k]: vertices with core number ≥ k
	path        string
	edges       [][2]int32 // the file's edge list (write-mix only)
}

// loadGraph reads a text graph and builds its index the way acqd does,
// timing both steps. cacheSize < 0 disables the result cache.
func loadGraph(path string, cacheSize int) (*loaded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t0 := time.Now()
	g, err := acq.Load(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	t1 := time.Now()
	g.BuildIndex()
	t2 := time.Now()
	g.SetResultCacheSize(cacheSize)
	return &loaded{g: g, load: t1.Sub(t0), index: t2.Sub(t1), path: path}, nil
}

// indexCores records, for each k up to kmax, the vertices whose core number
// is at least k: the datagen.QueryVertices rule, so every query vertex has
// a k-ĉore to answer from.
func (l *loaded) indexCores(kmax int) error {
	s := l.g.Snapshot()
	l.byCore = make([][]int32, kmax+1)
	for v := int32(0); int(v) < s.NumVertices(); v++ {
		c, err := s.CoreNumber(v)
		if err != nil {
			return err
		}
		for k := 0; k <= min(c, kmax); k++ {
			l.byCore[k] = append(l.byCore[k], v)
		}
	}
	return nil
}

// readEdges parses the edge lines of the text graph into dense vertex IDs.
func (l *loaded) readEdges() error {
	f, err := os.Open(l.path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "e ") {
			continue
		}
		p := strings.Fields(line)
		if len(p) != 3 {
			return fmt.Errorf("%s: bad edge line %q", l.path, line)
		}
		u, ok1 := l.g.VertexID(p[1])
		v, ok2 := l.g.VertexID(p[2])
		if !ok1 || !ok2 {
			return fmt.Errorf("%s: edge %q names an unknown vertex", l.path, line)
		}
		l.edges = append(l.edges, [2]int32{u, v})
	}
	return sc.Err()
}

// request is one search: its collection, the library query it stands for
// (for the in-process layers) and its pre-encoded v1 body (for HTTP).
type request struct {
	Collection string
	Q          acq.Query
	Body       []byte
}

type wireQuery struct {
	ID       int32    `json:"id"`
	K        int      `json:"k"`
	Keywords []string `json:"keywords,omitempty"`
	Mode     string   `json:"mode,omitempty"`
	Theta    float64  `json:"theta,omitempty"`
	Tau      float64  `json:"tau,omitempty"`
}

func encodeSearch(q acq.Query, timeoutMS int64) []byte {
	b, err := json.Marshal(struct {
		Query     wireQuery `json:"query"`
		TimeoutMS int64     `json:"timeout_ms"`
	}{wireQuery{ID: q.VertexID, K: q.K, Keywords: q.Keywords, Mode: string(q.Mode), Theta: q.Theta, Tau: q.Tau}, timeoutMS})
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return b
}

// queryGen draws queries by the workload's rules: a vertex with core ≥ k,
// k in [KMin, KMax], S = W(q) or a random non-empty subset of it, and a
// mode by the configured shares. Mode, k and the choice of S are stratified
// per collection: they cycle through a shuffled block holding every
// combination in proportion (10 mode slots × each k × both choices of S),
// so two seeds differ in which vertices they ask about and in what order,
// not in how many heavy queries they happen to draw.
type queryGen struct {
	qc    queryConfig
	rng   *rand.Rand
	cols  map[string]*loaded
	cells map[string][]cell // remaining cells of each collection's block
}

type cell struct {
	mode modeShare
	k    int
	full bool
}

func (g *queryGen) block() []cell {
	var out []cell
	for _, m := range g.qc.Modes {
		for slot := 0; slot < int(math.Round(m.Share*10)); slot++ {
			for k := g.qc.KMin; k <= g.qc.KMax; k++ {
				out = append(out, cell{m, k, true}, cell{m, k, false})
			}
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// blockLen is the number of cells in a block.
func (g *queryGen) blockLen() int {
	slots := 0
	for _, m := range g.qc.Modes {
		slots += int(math.Round(m.Share * 10))
	}
	return slots * (g.qc.KMax - g.qc.KMin + 1) * 2
}

func (g *queryGen) next(col string) request {
	if g.cells == nil {
		g.cells = map[string][]cell{}
	}
	if len(g.cells[col]) == 0 {
		g.cells[col] = g.block()
	}
	c := g.cells[col][0]
	g.cells[col] = g.cells[col][1:]
	l := g.cols[col]
	cands := l.byCore[c.k]
	v := cands[g.rng.Intn(len(cands))]
	q := acq.Query{VertexID: v, K: c.k, Mode: acq.Mode(c.mode.Mode), Theta: c.mode.Theta, Tau: c.mode.Tau}
	if !c.full {
		// A random non-empty subset of W(q); a nil S means W(q) itself.
		w := l.g.Keywords(v)
		var s []string
		for _, kw := range w {
			if g.rng.Intn(2) == 0 {
				s = append(s, kw)
			}
		}
		if len(s) == 0 && len(w) > 0 {
			s = []string{w[g.rng.Intn(len(w))]}
		}
		q.Keywords = s
	}
	return request{Collection: col, Q: q, Body: encodeSearch(q, g.qc.TimeoutMS)}
}

// stream produces the workload's request sequence. Distinct workloads draw
// a fresh query per request, round-robin over the collections; pooled ones
// draw a fixed pool per collection and then pick from it with Zipf
// popularity, so the cache holds the head of the pool but not its tail.
type stream struct {
	gen  *queryGen
	cols []string
	pool [][]request // per collection; nil for distinct streams
	zipf *rand.Zipf
	i    int
}

func newStream(gen *queryGen, w workload) *stream {
	s := &stream{gen: gen, cols: w.Collections}
	if w.PoolPerCollection > 0 {
		for _, c := range w.Collections {
			p := make([]request, w.PoolPerCollection)
			for i := range p {
				p[i] = gen.next(c)
			}
			s.pool = append(s.pool, p)
		}
		s.zipf = rand.NewZipf(gen.rng, w.ZipfS, 1, uint64(w.PoolPerCollection-1))
	}
	return s
}

// fresh is a distinct stream over the same collections with its own
// random source: fresh queries from the start of a block, whether or not
// this stream draws from a pool.
func (s *stream) fresh(seed int64) *stream {
	g := &queryGen{qc: s.gen.qc, rng: newRand(seed), cols: s.gen.cols}
	return &stream{gen: g, cols: s.cols}
}

// round is how many requests hold every collection's stratified block
// once: a distinct stream that is read in whole rounds asks every mix of
// mode, k and S in proportion.
func (s *stream) round() int { return len(s.cols) * s.gen.blockLen() }

func (s *stream) next() request {
	c := s.i % len(s.cols)
	s.i++
	if s.pool == nil {
		return s.gen.next(s.cols[c])
	}
	return s.pool[c][s.zipf.Uint64()]
}

func (s *stream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// writeGen produces write-mix's 8-op mutation batches: 2 inserts that re-add
// edges an earlier batch removed, 2 removals of existing edges, 2 keyword
// adds and 2 keyword removals that undo earlier adds, so the graph stays
// near its starting state however long the run. The generator tracks the
// graph state it implies, so every op changes the graph when batches are
// applied in order.
//
// Removals only pick input edges with an endpoint whose core number is
// below kmin, the smallest k queried. Such an edge lies in no k-core for
// k ≥ kmin, so however the removals and re-adds interleave, every vertex
// keeps its k-cores and no query turns into a 404 (no_k_core) mid-run; with
// any edge removable, one search in ten write-mix runs did.
type writeGen struct {
	rng         *rand.Rand
	present     [][2]int32             // removable edges currently in the graph
	removed     [][2]int32             // edges a batch removed, oldest first
	added       []kwPair               // fresh keywords a batch added, oldest first
	restore     []kwPair               // input keywords a batch removed, oldest first
	keywords    func(v int32) []string // the input's keyword sets
	extra       map[kwPair]bool
	removedOrig map[kwPair]bool
	vocab       []string
	vertices    int
	edgeIndex   map[[2]int32]bool
}

type kwPair struct {
	V  int32
	KW string
}

// newWriteGen starts the stream from l's input edges; l.byCore must be
// indexed up to kmin.
func newWriteGen(seed int64, l *loaded, kmin int) *writeGen {
	inCores := make(map[int32]bool, len(l.byCore[kmin]))
	for _, v := range l.byCore[kmin] {
		inCores[v] = true
	}
	var removable [][2]int32
	for _, e := range l.edges {
		if !inCores[e[0]] || !inCores[e[1]] {
			removable = append(removable, e)
		}
	}
	w := &writeGen{
		rng:         rand.New(rand.NewSource(seed)),
		present:     removable,
		keywords:    l.g.Keywords,
		extra:       make(map[kwPair]bool),
		removedOrig: make(map[kwPair]bool),
		vertices:    l.g.NumVertices(),
		edgeIndex:   make(map[[2]int32]bool, len(l.edges)),
	}
	for _, e := range l.edges {
		w.edgeIndex[norm(e)] = true
	}
	for i := 0; i < 64; i++ {
		w.vocab = append(w.vocab, fmt.Sprintf("ledger%02d", i))
	}
	return w
}

func norm(e [2]int32) [2]int32 {
	if e[0] > e[1] {
		return [2]int32{e[1], e[0]}
	}
	return e
}

// batch returns the next batch of 8 mutations.
func (w *writeGen) batch() []acq.Mutation {
	ops := make([]acq.Mutation, 0, 8)
	// Removals first, so the re-adds below never pick an edge this batch
	// removes.
	var gone [][2]int32
	for i := 0; i < 2; i++ {
		j := w.rng.Intn(len(w.present))
		e := w.present[j]
		w.present[j] = w.present[len(w.present)-1]
		w.present = w.present[:len(w.present)-1]
		delete(w.edgeIndex, norm(e))
		ops = append(ops, acq.Mutation{Op: acq.OpRemoveEdge, U: e[0], V: e[1]})
		gone = append(gone, e)
	}
	for i := 0; i < 2; i++ {
		var e [2]int32
		if len(w.removed) > 0 {
			e, w.removed = w.removed[0], w.removed[1:]
		} else {
			// The first batch has nothing to re-add yet: insert a fresh
			// non-edge, which later batches may remove again.
			for {
				e = [2]int32{int32(w.rng.Intn(w.vertices)), int32(w.rng.Intn(w.vertices))}
				if e[0] != e[1] && !w.edgeIndex[norm(e)] {
					break
				}
			}
		}
		w.present = append(w.present, e)
		w.edgeIndex[norm(e)] = true
		ops = append(ops, acq.Mutation{Op: acq.OpInsertEdge, U: e[0], V: e[1]})
	}
	w.removed = append(w.removed, gone...)
	// Keywords alternate between two phases: add fresh pairs while removing
	// original ones, then restore the originals while removing the fresh
	// pairs again.
	var addedNow, removedNow []kwPair
	for i := 0; i < 2; i++ {
		var p kwPair
		if len(w.restore) > 0 {
			p, w.restore = w.restore[0], w.restore[1:]
			delete(w.removedOrig, p)
		} else {
			p = w.freshKeyword()
			w.extra[p] = true
			addedNow = append(addedNow, p)
		}
		ops = append(ops, acq.Mutation{Op: acq.OpAddKeyword, Vertex: p.V, Keyword: p.KW})
	}
	for i := 0; i < 2; i++ {
		var p kwPair
		if len(w.added) > 0 {
			p, w.added = w.added[0], w.added[1:]
			delete(w.extra, p)
		} else {
			p = w.originalKeyword()
			w.removedOrig[p] = true
			removedNow = append(removedNow, p)
		}
		ops = append(ops, acq.Mutation{Op: acq.OpRemoveKeyword, Vertex: p.V, Keyword: p.KW})
	}
	w.added = append(w.added, addedNow...)
	w.restore = append(w.restore, removedNow...)
	return ops
}

// originalKeyword picks a keyword a vertex carried in the input and still
// carries.
func (w *writeGen) originalKeyword() kwPair {
	for {
		v := int32(w.rng.Intn(w.vertices))
		kws := w.keywords(v)
		if len(kws) == 0 {
			continue
		}
		p := kwPair{V: v, KW: kws[w.rng.Intn(len(kws))]}
		if !w.removedOrig[p] {
			return p
		}
	}
}

// freshKeyword picks a (vertex, keyword) pair the vertex does not carry.
func (w *writeGen) freshKeyword() kwPair {
	for {
		p := kwPair{V: int32(w.rng.Intn(w.vertices)), KW: w.vocab[w.rng.Intn(len(w.vocab))]}
		if w.extra[p] {
			continue
		}
		has := false
		for _, kw := range w.keywords(p.V) {
			has = has || kw == p.KW
		}
		if !has {
			return p
		}
	}
}

// encodeMutations renders a batch as the v1 mutations body, addressing
// vertices by dense ID.
func encodeMutations(ops []acq.Mutation) []byte {
	type wm struct {
		Op      string `json:"op"`
		U       *int32 `json:"u_id,omitempty"`
		V       *int32 `json:"v_id,omitempty"`
		ID      *int32 `json:"id,omitempty"`
		Keyword string `json:"keyword,omitempty"`
	}
	out := make([]wm, len(ops))
	for i, m := range ops {
		m := m
		out[i].Op = string(m.Op)
		switch m.Op {
		case acq.OpInsertEdge, acq.OpRemoveEdge:
			out[i].U, out[i].V = &m.U, &m.V
		default:
			out[i].ID, out[i].Keyword = &m.Vertex, m.Keyword
		}
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(map[string]any{"mutations": out}); err != nil {
		panic(err) // plain structs always encode
	}
	return b.Bytes()
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
