package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := &Artifact{
		Experiment: "fig1a",
		Title:      "Ping-pong latency",
		Meta:       Meta{Quick: true, Jobs: 8, Seed: 42, WallMS: 12.5, GoVersion: "go1.x"},
		Tables: []Table{{
			Title:   "Figure 1(a)",
			Headers: []string{"size", "Elan4 us", "IB us"},
			Rows:    [][]string{{"0 B", "2.81", "6.25"}, {"1 KiB", "6.6", "12.0"}},
		}},
		Notes: []string{"paper anchor: ratio ~2"},
	}
	path, err := a.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "fig1a.json") {
		t.Fatalf("path = %q", path)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", a, got)
	}

	// The file must be valid, indented JSON with stable keys.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"experiment", "title", "meta", "tables"} {
		if _, ok := m[key]; !ok {
			t.Errorf("artifact JSON lacks %q", key)
		}
	}
}

// TestReadArtifactDetectsCorruption tampers with a stored artifact in a
// way that keeps the JSON parsable — only the payload drifts from the
// recorded SHA-256 — and asserts the read refuses it.
func TestReadArtifactDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	a := &Artifact{
		Experiment: "fig1a",
		Title:      "Ping-pong latency",
		Tables: []Table{{
			Title:   "Figure 1(a)",
			Headers: []string{"size", "Elan4 us", "IB us"},
			Rows:    [][]string{{"0 B", "2.81", "6.25"}},
		}},
	}
	path, err := a.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Replace(raw, []byte("2.81"), []byte("9.99"), 1)
	if bytes.Equal(corrupted, raw) {
		t.Fatal("corruption did not take")
	}
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("ReadArtifact on corrupted file: err = %v, want checksum mismatch", err)
	}
}

func TestArtifactWriteRejectsAnonymous(t *testing.T) {
	if _, err := (&Artifact{}).Write(t.TempDir()); err == nil {
		t.Fatal("artifact without an experiment id must not write")
	}
}

// legacyShardsArtifact is an artifact as written by a build that still
// had the parallel kernel: its meta records "shards": 4. The checksum
// covers the payload, not Meta, so the retired field must not stop
// existing results/ and server cache entries from loading.
const legacyShardsArtifact = `{
  "experiment": "fig5",
  "title": "Sweep3D",
  "meta": {
    "quick": true,
    "jobs": 2,
    "shards": 4,
    "seed": 1,
    "wall_ms": 12.5
  },
  "tables": [
    {
      "title": "t",
      "headers": [
        "nodes",
        "IB"
      ],
      "rows": [
        [
          "2",
          "1.0"
        ]
      ]
    }
  ],
  "checksum": "a7bab31488c0210f43c34ac4d9d09b9ce6c782e991d82b495c04c9eec37b968a"
}
`

func TestReadArtifactAcceptsLegacyShardsMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig5.json")
	if err := os.WriteFile(path, []byte(legacyShardsArtifact), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := ReadArtifact(path)
	if err != nil {
		t.Fatalf("legacy artifact with a shards meta field: %v", err)
	}
	if a.Experiment != "fig5" || a.Meta.Jobs != 2 || len(a.Tables) != 1 || a.Tables[0].Rows[0][1] != "1.0" {
		t.Fatalf("legacy artifact decoded wrong: %+v", a)
	}
}
