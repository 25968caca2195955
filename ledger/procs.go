package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/acq-search/acq/engine"
)

// proc is one server process the benchmark started: acqd or acqrouter.
type proc struct {
	name string
	bin  string
	args []string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// procs owns every process a run starts, so that every exit path can stop
// them all and wait for each to end.
type procs struct {
	mu   sync.Mutex
	live map[*proc]bool
	dir  string
	n    int
}

func newProcs(logDir string) *procs { return &procs{live: make(map[*proc]bool), dir: logDir} }

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches bin with args, logging to a file under the run directory.
// GOMAXPROCS is set explicitly so the recorded environment is what the
// process ran with.
func (ps *procs) start(name, bin, addr string, gomaxprocs int, args ...string) (*proc, error) {
	ps.mu.Lock()
	ps.n++
	logPath := filepath.Join(ps.dir, fmt.Sprintf("%02d-%s.log", ps.n, name))
	ps.mu.Unlock()
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, bin: bin, args: args, url: "http://" + addr, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		lf.Close()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.live[p] = true
	ps.mu.Unlock()
	return p, nil
}

// kill sends SIGKILL and waits for the process to end.
func (ps *procs) kill(p *proc) {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	ps.mu.Lock()
	delete(ps.live, p)
	ps.mu.Unlock()
}

func (ps *procs) killAll() {
	ps.mu.Lock()
	var all []*proc
	for p := range ps.live {
		all = append(all, p)
	}
	ps.mu.Unlock()
	for _, p := range all {
		ps.kill(p)
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// tailLog returns the end of the process's log, for error messages.
func (p *proc) tailLog() string {
	b, _ := os.ReadFile(p.log.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// procStatusKB reads a "Vm*:" field of /proc/<pid>/status in kB.
func (p *proc) procStatusKB(field string) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// cpuMillis is the process's user+system CPU time from /proc/<pid>/stat.
func (p *proc) cpuMillis() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 1000 / clockTicks
}

// clockTicks is USER_HZ, fixed at 100 on Linux for /proc accounting.
const clockTicks = 100

var ctlClient = &http.Client{Timeout: 30 * time.Second}

// getJSON fetches url and decodes a JSON body into v, returning the status.
func getJSON(url string, v any) (int, error) {
	resp, err := ctlClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("GET %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// post sends an empty POST and returns the status.
func post(url string) (int, error) {
	resp, err := ctlClient.Post(url, "application/json", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

type healthz struct {
	OK      bool   `json:"ok"`
	Version uint64 `json:"version"`
}

// waitUntil polls cond every few milliseconds until it holds, the process
// exits, or the timeout passes.
func waitUntil(p *proc, timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		if p != nil && p.exited() {
			return fmt.Errorf("%s exited before %s:\n%s", p.name, what, p.tailLog())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// collectionsReady reports whether every named collection answers ready.
func collectionsReady(base string, names []string) bool {
	var list struct {
		Collections []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"collections"`
	}
	if st, err := getJSON(base+"/v1/collections", &list); err != nil || st != http.StatusOK {
		return false
	}
	ready := 0
	for _, c := range list.Collections {
		for _, n := range names {
			if c.Name == n && c.State == "ready" {
				ready++
			}
		}
	}
	return ready == len(names)
}

// healthyAt reports whether base answers /healthz 200 at version ≥ v.
func healthyAt(base string, v uint64) bool {
	var h healthz
	st, err := getJSON(base+"/healthz", &h)
	return err == nil && st == http.StatusOK && h.OK && h.Version >= v
}

func metricsOf(base string) (engine.Metrics, error) {
	var m engine.Metrics
	st, err := getJSON(base+"/metrics", &m)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("GET %s/metrics: status %d", base, st)
	}
	return m, err
}

// monitor samples the serving processes while a window runs: their summed
// resident set every 100 ms, and the machine's CPU steal over the window
// (time a virtualised host gave this machine's CPUs to someone else), which
// explains a run that reads slow for reasons outside the program.
type monitor struct {
	rssMB        []float64
	steal0, all0 float64
	done, ended  chan struct{}
}

func startMonitor(servers []*proc) *monitor {
	m := &monitor{done: make(chan struct{}), ended: make(chan struct{})}
	m.steal0, m.all0 = cpuSteal()
	go func() {
		defer close(m.ended)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.done:
				return
			case <-t.C:
				var kb int64
				for _, p := range servers {
					kb += p.procStatusKB("VmRSS")
				}
				m.rssMB = append(m.rssMB, float64(kb)/1024)
			}
		}
	}()
	return m
}

// stop ends sampling and returns the median resident set and the share of
// CPU time stolen during the window.
func (m *monitor) stop() (rssMB, stealShare float64) {
	close(m.done)
	<-m.ended
	s1, a1 := cpuSteal()
	if a1 > m.all0 {
		stealShare = (s1 - m.steal0) / (a1 - m.all0)
	}
	return median(m.rssMB), stealShare
}

// cpuSteal reads the steal and total jiffies of the aggregate cpu line of
// /proc/stat.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
