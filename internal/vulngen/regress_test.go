package vulngen

import (
	"os"
	"path/filepath"
	"testing"

	"protego/internal/exploits"
)

// Every committed testdata scenario is a shrunk regression reproducer:
// it must decode, replay against the per-class CVE representatives, and
// hold containment.
func TestRegressionScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.scenario"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < int(shapeCount) {
		t.Fatalf("found %d committed scenarios, want at least one per shape (%d)", len(files), shapeCount)
	}
	// Decode every scenario before the parallel subtests start, so the
	// per-shape coverage check reads a map no subtest writes.
	seen := map[Shape]bool{}
	scenarios := make([]Scenario, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := DecodeScenario(string(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		scenarios[i] = sc
		seen[sc.Shape] = true
	}
	for shape := Shape(0); shape < shapeCount; shape++ {
		if !seen[shape] {
			t.Errorf("no committed regression scenario for shape %s", shape)
		}
	}
	corpus := exploits.ClassRepresentatives()
	for i, f := range files {
		sc := scenarios[i]
		t.Run(filepath.Base(f), func(t *testing.T) {
			t.Parallel()
			res, err := ReplayScenario(sc, corpus, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failing() {
				t.Errorf("%s", res)
			}
		})
	}
}

// The Go-literal replay form a failure report embeds: the alias-cycle
// reproducer that originally crashed policy.expand, committed as code so
// the report format itself stays replayable.
func TestGoLiteralRegressionAliasCycle(t *testing.T) {
	sc := Scenario{
		Shape: ShapeAliasCycle,
		Muts: []Mut{
			{Op: MutAliasCycle, A: 0},
			{Op: MutSyncPolicy, A: 0},
		},
	}
	res, err := ReplayScenario(sc, exploits.ClassRepresentatives()[:1], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failing() {
		t.Errorf("%s", res)
	}
}
