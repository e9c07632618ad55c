package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// specFile is the declaration every run is checked against: workloads,
// metric names, units, directions and regression bounds live in one place,
// BENCHMARK.json at the repository root.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// findRoot returns the nearest directory at or above the working directory
// that holds BENCHMARK.json, so the command works from the repository root
// and its tests work from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in the working directory or above", specFile)
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// metrics returns the metric set a run prints: the end-to-end metrics for a
// timed run, the per-layer metrics for a traced one.
func (s *spec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// checkNames reports any difference between the metrics a run produced and
// the set BENCHMARK.json declares for that kind of run.
func (s *spec) checkNames(got map[string]float64, trace bool) error {
	want := map[string]bool{}
	for _, m := range s.metrics(trace) {
		want[m.Name] = true
	}
	var missing, extra []string
	for name := range want {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name := range got {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("metrics differ from %s: missing %v, undeclared %v", specFile, missing, extra)
}
