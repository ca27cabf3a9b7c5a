package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"repro/internal/dispatch"
)

// digestOf fingerprints a measurement's simulated outcome: FNV-1a 64 over
// its label-stripped JSON, the same bytes the result store keeps.  Every
// counter, stall category and hit rate feeds it; the label does not.
func digestOf(m dispatch.Measurement) string {
	m.Label = ""
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // a Measurement is scalars and fixed arrays only
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// golden is the committed record of every paper_sweep cell's digest, keyed
// by result-store key (bench|n|machconf-hash).
type golden struct {
	N     uint64            `json:"n"`
	Cells map[string]string `json:"cells"`
}

func parseGolden(data []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digest file: %w", err)
	}
	return &g, nil
}

// check fails when m's digest differs from the golden one for key.
func (g *golden) check(key string, m dispatch.Measurement) error {
	want, ok := g.Cells[key]
	if !ok {
		return fmt.Errorf("no golden digest for %s", key)
	}
	if got := digestOf(m); got != want {
		return fmt.Errorf("%s: digest %s, golden %s", key, got, want)
	}
	return nil
}

// combined is one digest over every cell, in key order: a short line to
// compare two runs' outputs by eye.
func (g *golden) combined() string {
	keys := make([]string, 0, len(g.Cells))
	for k := range g.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, g.Cells[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (g *golden) writeFile(path string) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
