package lint

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleDiags() []Diagnostic {
	mk := func(file string, line int, analyzer, msg string, suppressed bool) Diagnostic {
		d := Diagnostic{Analyzer: analyzer, Message: msg, Suppressed: suppressed}
		d.Pos.Filename, d.Pos.Line, d.Pos.Column = file, line, 5
		return d
	}
	return []Diagnostic{
		mk("internal/a/a.go", 10, "wallclock", "call to time.Now reads the wall clock", false),
		mk("internal/a/a.go", 20, "wallclock", "call to time.Now reads the wall clock", true),
		mk("internal/b/b.go", 3, "timetaint", "host-clock value flows into sim scheduling call", false),
	}
}

// TestSARIFShape decodes the emitted log and pins the structural
// contract: schema/version, a rule table covering every analyzer, one
// result per diagnostic with rule ID, position, message, and the
// allow-state carried as a suppression record.
func TestSARIFShape(t *testing.T) {
	diags := sampleDiags()
	out, err := SARIF(diags)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				Suppressions []struct {
					Kind string `json:"kind"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("emitted SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "simlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if got, want := len(run.Tool.Driver.Rules), len(DefaultAnalyzers()); got != want {
		t.Errorf("rule table has %d entries, want %d", got, want)
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule %+v missing id or description", r)
		}
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(diags))
	}
	r0 := run.Results[0]
	if r0.RuleID != "wallclock" || r0.Level != "error" || len(r0.Suppressions) != 0 {
		t.Errorf("active finding rendered wrong: %+v", r0)
	}
	loc := r0.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/a/a.go" || loc.Region.StartLine != 10 || loc.Region.StartColumn != 5 {
		t.Errorf("location rendered wrong: %+v", loc)
	}
	if run.Tool.Driver.Rules[r0.RuleIndex].ID != r0.RuleID {
		t.Errorf("ruleIndex %d does not point at %q", r0.RuleIndex, r0.RuleID)
	}
	r1 := run.Results[1]
	if r1.Level != "note" || len(r1.Suppressions) != 1 || r1.Suppressions[0].Kind != "inSource" {
		t.Errorf("in-source-suppressed finding rendered wrong: %+v", r1)
	}
	r2 := run.Results[2]
	if r2.RuleID != "timetaint" || r2.Level != "error" || len(r2.Suppressions) != 0 {
		t.Errorf("second rule's active finding rendered wrong: %+v", r2)
	}
	if run.Tool.Driver.Rules[r2.RuleIndex].ID != r2.RuleID {
		t.Errorf("ruleIndex %d does not point at %q", r2.RuleIndex, r2.RuleID)
	}
}
