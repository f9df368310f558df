package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// goldenEntry is what a shipped seed must reproduce: the digest of one
// pass's simulated outputs and, for the closed-loop workloads, the exact
// counts behind it, so a mismatch can name what moved.
type goldenEntry struct {
	Digest string            `json:"digest"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// golden maps workload (plus part) -> seed -> entry.
type golden map[string]map[string]goldenEntry

func goldenPath(cfg config) string { return cfg.root + "/perfbench/golden.json" }

func loadGolden(cfg config) (golden, error) {
	data, err := os.ReadFile(goldenPath(cfg))
	if err != nil {
		return nil, err
	}
	g := golden{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(cfg), err)
	}
	return g, nil
}

// checkGolden compares a run's entry with the shipped one for its seed
// and describes any mismatch; a seed without an entry passes. part
// names a workload's second digest (simd-open keeps its misses apart);
// a self-test's tiny-size run has entries of its own, under ".tiny".
func checkGolden(cfg config, part string, got goldenEntry) (string, error) {
	g, err := loadGolden(cfg)
	if err != nil {
		return "", err
	}
	key := cfg.workload + part
	if cfg.scale == tiny {
		key += ".tiny"
	}
	seed := strconv.FormatUint(cfg.seed, 10)
	if cfg.writeGolden {
		if g[key] == nil {
			g[key] = map[string]goldenEntry{}
		}
		g[key][seed] = got
		return "", saveGolden(cfg, g)
	}
	want, ok := g[key][seed]
	if !ok {
		return "", nil
	}
	if want.Digest == got.Digest {
		return "", nil
	}
	msg := fmt.Sprintf("simulated outputs differ from the golden digest for seed %s (%s, want %s): a model change, not a speed-up",
		seed, got.Digest, want.Digest)
	var names []string
	for n := range want.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if want.Counts[n] != got.Counts[n] {
			msg += fmt.Sprintf("; %s %d, want %d", n, got.Counts[n], want.Counts[n])
		}
	}
	return msg, nil
}

func saveGolden(cfg config, g golden) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(cfg), append(data, '\n'), 0o644)
}
