package bench

import (
	"fmt"
	"strings"
	"time"

	"protego/internal/difffuzz"
	"protego/internal/kernel"
	"protego/internal/seccomp/profiles"
)

// DiffFuzzReport summarizes a differential-fuzzing throughput run: n
// seeded random traces executed on fresh baseline/Protego machine pairs
// with per-step fingerprint comparison and invariant checking.
type DiffFuzzReport struct {
	Seed    int64   `json:"seed"`
	Traces  int     `json:"traces"`
	Steps   int     `json:"steps"`
	Seconds float64 `json:"seconds"`
	// TracesPerSec is the snapshot-clone throughput of the sweep (each
	// trace stamps a COW clone pair from the golden images).
	// FreshBootTracesPerSec is the throughput of a small sample of the
	// same traces paying a full world.Build per machine, and
	// SnapshotSpeedup the median per-round fresh/snapshot time ratio of
	// that sample under the paired harness.
	TracesPerSec           float64 `json:"traces_per_sec"`
	StepsPerSec            float64 `json:"steps_per_sec"`
	FreshBootTracesPerSec  float64 `json:"fresh_boot_traces_per_sec"`
	SnapshotSpeedup        float64 `json:"snapshot_speedup"`
	ExplainedDivergences   int     `json:"explained_divergences"`
	UnexplainedDivergences int     `json:"unexplained_divergences"`
	InvariantViolations    int     `json:"invariant_violations"`
	// Failures carries the shrunk replayable reproducers, empty on a
	// clean run.
	Failures []string `json:"failures,omitempty"`
}

// Clean reports whether the run found no unexplained divergences and no
// invariant violations.
func (r *DiffFuzzReport) Clean() bool {
	return r.UnexplainedDivergences == 0 && r.InvariantViolations == 0
}

// diffFuzzRounds is the paired round count of the snapshot-speedup
// measurement, each round the whole sample once on fresh boots and once
// on snapshot clones.
const diffFuzzRounds = 5

// RunDiffFuzz executes n generated traces from seed and aggregates the
// outcome. Unlike the test sweep it keeps going past failures so the
// report counts them all, shrinking each to its replay literal. The
// Protego machine audits every step against the committed golden seccomp
// profiles, so a utility straying outside its learned syscall allowlist
// counts as an invariant violation here too.
func RunDiffFuzz(n int, seed int64) (*DiffFuzzReport, error) {
	audit, err := profiles.Load(kernel.ModeProtego)
	if err != nil {
		return nil, fmt.Errorf("load golden profiles: %v", err)
	}
	cfg := difffuzz.Config{SeccompAudit: audit}
	rep := &DiffFuzzReport{Seed: seed, Traces: n}
	gen := difffuzz.NewGenerator(seed)
	start := time.Now()
	for i := 0; i < n; i++ {
		tr := gen.Next()
		res, err := difffuzz.Run(tr, cfg)
		if err != nil {
			return nil, fmt.Errorf("trace %d: %v", i, err)
		}
		rep.Steps += res.Steps
		rep.ExplainedDivergences += res.Explained
		if res.Divergence != nil {
			rep.UnexplainedDivergences++
		}
		rep.InvariantViolations += len(res.Violations)
		if res.Failed() {
			min := difffuzz.Shrink(tr, cfg)
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("trace %d: %s\nreplay:\n%s", i, res, min.GoLiteral()))
		}
	}
	rep.Seconds = time.Since(start).Seconds()
	if rep.Seconds > 0 {
		rep.TracesPerSec = float64(rep.Traces) / rep.Seconds
		rep.StepsPerSec = float64(rep.Steps) / rep.Seconds
	}

	// Snapshot speedup: the paired harness runs one sample of the same
	// trace stream on fresh-booted and on snapshot-cloned machine pairs,
	// enough traces to amortize noise, few enough that the bench stays
	// quick.
	sample := make([]difffuzz.Trace, min(max(n/10, 3), n))
	sgen := difffuzz.NewGenerator(seed)
	for i := range sample {
		sample[i] = sgen.Next()
	}
	arm := func(name string, cfg difffuzz.Config) Arm {
		return Arm{Name: name, Run: nsPerOp(len(sample), func(int) error {
			for i, tr := range sample {
				if _, err := difffuzz.Run(tr, cfg); err != nil {
					return fmt.Errorf("trace %d: %v", i, err)
				}
			}
			return nil
		})}
	}
	res, err := Paired(diffFuzzRounds,
		arm("fresh boot", difffuzz.Config{FreshBoot: true, SeccompAudit: audit}),
		arm("snapshot", cfg))
	if err != nil {
		return nil, err
	}
	rep.FreshBootTracesPerSec = 1e9 / res.A.Mean
	rep.SnapshotSpeedup = 1 / res.MedianRatio
	return rep, nil
}

// FormatDiffFuzz renders the report for the protego-bench -difffuzz mode.
func FormatDiffFuzz(r *DiffFuzzReport) string {
	var b strings.Builder
	b.WriteString("Differential syscall fuzzing (baseline vs Protego, per-step fingerprints)\n")
	fmt.Fprintf(&b, "  seed=%d traces=%d steps=%d in %.2fs (%.1f traces/s, %.0f steps/s)\n",
		r.Seed, r.Traces, r.Steps, r.Seconds, r.TracesPerSec, r.StepsPerSec)
	fmt.Fprintf(&b, "  fresh-boot baseline: %.1f traces/s (snapshot cloning %.1fx faster)\n",
		r.FreshBootTracesPerSec, r.SnapshotSpeedup)
	fmt.Fprintf(&b, "  explained (by-design) divergences: %d\n", r.ExplainedDivergences)
	fmt.Fprintf(&b, "  unexplained divergences: %d\n", r.UnexplainedDivergences)
	fmt.Fprintf(&b, "  invariant violations: %d\n", r.InvariantViolations)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAILURE %s\n", f)
	}
	return b.String()
}
