package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	acq "github.com/acq-search/acq"
)

// answer is one probe's reply: a status and, on 200, the result.
type answer struct {
	Status  int
	Version uint64
	Result  acq.Result
	Raw     json.RawMessage // the result exactly as the server encoded it
}

// colPath is the URL segment of a collection: write-mix serves dblp as the
// leader's default collection.
func (r *run) colPath(c string) string {
	if r.w.writes() {
		return "default"
	}
	return c
}

// answers asks base for every probe.
func (r *run) answers(base string) ([]answer, error) {
	lane := &httpLane{hc: newHTTPClient(1, 30*time.Second)}
	defer lane.hc.CloseIdleConnections()
	out := make([]answer, len(r.probes))
	for i, p := range r.probes {
		st, err := lane.post(base+"/v1/collections/"+r.colPath(p.Collection)+"/search", p.Body)
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		out[i].Status = st
		if st != http.StatusOK {
			continue
		}
		var body struct {
			Version uint64          `json:"version"`
			Result  json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(lane.buf.Bytes(), &body); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		if err := json.Unmarshal(body.Result, &out[i].Result); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		out[i].Version, out[i].Raw = body.Version, body.Result
	}
	return out, nil
}

// canon renders what a probe must agree on: the communities and the label
// size. An empty list (of communities, label keywords or members) compares
// equal whether it was encoded as [] or null; encoding differences are
// counted separately (see checkProbes).
func canon(res acq.Result) string {
	c := make([]acq.Community, len(res.Communities))
	for i, cm := range res.Communities {
		c[i] = acq.Community{Label: cm.Label, Members: cm.Members, MemberIDs: cm.MemberIDs}
		if c[i].Label == nil {
			c[i].Label = []string{}
		}
		if c[i].Members == nil {
			c[i].Members = []string{}
		}
		if c[i].MemberIDs == nil {
			c[i].MemberIDs = []int32{}
		}
	}
	b, err := json.Marshal(struct {
		C []acq.Community
		L int
	}{c, res.LabelSize})
	if err != nil {
		panic(err) // acq.Result holds only strings and numbers
	}
	return string(b)
}

func diffAnswers(a, b answer) string {
	if a.Status != b.Status {
		return fmt.Sprintf("status %d vs %d", a.Status, b.Status)
	}
	if ca, cb := canon(a.Result), canon(b.Result); ca != cb {
		return fmt.Sprintf("results differ (%d vs %d bytes): %s", len(ca), len(cb), firstDiff(a.Result, b.Result))
	}
	return ""
}

// firstDiff names the first place two results disagree.
func firstDiff(a, b acq.Result) string {
	if a.LabelSize != b.LabelSize {
		return fmt.Sprintf("label size %d vs %d", a.LabelSize, b.LabelSize)
	}
	if len(a.Communities) != len(b.Communities) {
		return fmt.Sprintf("%d vs %d communities", len(a.Communities), len(b.Communities))
	}
	for i := range a.Communities {
		ca, cb := a.Communities[i], b.Communities[i]
		if fmt.Sprint(ca.Label) != fmt.Sprint(cb.Label) {
			return fmt.Sprintf("community %d: label %v vs %v", i, ca.Label, cb.Label)
		}
		if len(ca.Members) != len(cb.Members) {
			return fmt.Sprintf("community %d (label %v): %d vs %d members", i, ca.Label, len(ca.Members), len(cb.Members))
		}
		for j := range ca.Members {
			if ca.Members[j] != cb.Members[j] || ca.MemberIDs[j] != cb.MemberIDs[j] {
				return fmt.Sprintf("community %d: member %d is %s/%d vs %s/%d", i, j, ca.Members[j], ca.MemberIDs[j], cb.Members[j], cb.MemberIDs[j])
			}
		}
	}
	return "same communities, different encoding"
}

// checkProbes answers the probe set over HTTP at base and requires each
// answer to match Snapshot.Search on the benchmark's own in-process copy:
// the same communities and label size, or an error where the copy errs.
func (r *run) checkProbes(when, base string) error {
	got, err := r.answers(base)
	if err != nil {
		return err
	}
	for i, p := range r.probes {
		res, err := r.cols[p.Collection].g.Snapshot().Search(context.Background(), p.Q)
		want := answer{Status: http.StatusOK, Result: res}
		switch {
		case err != nil && got[i].Status == http.StatusOK:
			r.checkFailures = append(r.checkFailures, fmt.Sprintf("%s: probe %d on %s: server answered, in-process copy failed: %v", when, i, p.Collection, err))
		case err == nil:
			if msg := diffAnswers(got[i], want); msg != "" {
				r.checkFailures = append(r.checkFailures, fmt.Sprintf("%s: probe %d on %s (%s): server and in-process copy differ: %s", when, i, p.Collection, p.Body, msg))
			} else if b, err := json.Marshal(res); err == nil && !bytes.Equal(b, got[i].Raw) {
				// Same answer, different bytes: a cached answer encodes an
				// empty label as null where a fresh one encodes [].
				r.encodingMismatches++
				r.detail("encoding_mismatch_example", fmt.Sprintf("%s: probe %d (%s)", when, i, p.Body))
			}
		}
	}
	r.layer["check.encoding_mismatches"] = float64(r.encodingMismatches)
	log.Printf("%s: %d probes checked against the in-process copy, %d failures so far", when, len(r.probes), len(r.checkFailures))
	return nil
}
