package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// config is ledger/workloads.json: the fixed workload parameters (rates,
// latency limits, ladders, mode mix, server flags). They
// live in the benchmark's own directory so that BENCHMARK.json keeps to its
// fixed schema and a change to the program cannot move them.
type config struct {
	Scale               float64             `json:"scale"`
	Lanes               int                 `json:"lanes"`
	Query               queryConfig         `json:"query"`
	ProbesPerCollection int                 `json:"probes_per_collection"`
	SetupRepeats        int                 `json:"setup_repeats"`
	Workloads           map[string]workload `json:"workloads"`
}

type queryConfig struct {
	KMin            int               `json:"k_min"`
	KMax            int               `json:"k_max"`
	TimeoutMS       int64             `json:"timeout_ms"`
	DeadlineSlackMS int64             `json:"deadline_slack_ms"`
	Modes           []modeShare       `json:"modes"`
	ExcludedModes   map[string]string `json:"excluded_modes"`
}

type modeShare struct {
	Mode  string  `json:"mode"`
	Share float64 `json:"share"`
	Theta float64 `json:"theta,omitempty"`
	Tau   float64 `json:"tau,omitempty"`
}

type workload struct {
	Collections       []string  `json:"collections"`
	PoolPerCollection int       `json:"pool_per_collection"` // 0: distinct queries
	ZipfS             float64   `json:"zipf_s"`
	WarmupSeconds     float64   `json:"warmup_seconds"`
	Rate              float64   `json:"rate"`
	P99LimitMS        float64   `json:"p99_limit_ms"`
	Ladder            []float64 `json:"ladder"`
	LadderStart       float64   `json:"ladder_start"` // the rung the capacity search tries first
	TraceRequests     int       `json:"trace_requests"`

	// write-mix only.
	WriteRate       float64  `json:"write_rate"`
	LeaderFlags     []string `json:"leader_flags"`
	RecoveryRepeats int      `json:"recovery_repeats"`
	RecoveryBatches int      `json:"recovery_batches"`
}

func (w workload) writes() bool { return w.WriteRate > 0 }

func loadConfig(path string) (*config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// ladderStart is the index of the highest rung at or below LadderStart,
// set near the capacity parent-commit runs found, so the search usually
// needs only a few rungs.
func (w workload) ladderStart() int {
	i := 0
	for j, r := range w.Ladder {
		if r <= w.LadderStart {
			i = j
		}
	}
	return i
}
