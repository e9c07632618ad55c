package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// goldenPath names the golden file of one workload output at one seed.
func goldenPath(dir, name string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d.json", name, seed))
}

// checkGolden compares a run's output values with the golden file recorded
// for the workload and seed. Seeds without a golden file are checked by
// their invariants alone. It returns the keys that differ. With
// cfg.writeGolden it records got as the new golden file instead.
func checkGolden(cfg runConfig, name string, got map[string]string) ([]string, error) {
	path := goldenPath(cfg.goldenDir, name, cfg.seed)
	if cfg.writeGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.goldenDir, 0o755); err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, append(data, '\n'), 0o644)
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	var bad []string
	for k, v := range want {
		if got[k] != v {
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return nil, nil
	}
	sort.Strings(bad)
	return bad, fmt.Errorf("%s seed %d: %v differ from golden %s", name, cfg.seed, bad, path)
}

// fields flattens a JSON-encodable struct into field → JSON value, so a
// golden mismatch names the fields that moved.
func fields(v any) (map[string]string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(raw))
	for k, v := range raw {
		out[k] = string(v)
	}
	return out, nil
}
