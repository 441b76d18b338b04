package bench

import (
	"fmt"
	"strings"
	"time"

	"protego/internal/fleet"
	"protego/internal/kernel"
	"protego/internal/world"
)

// FleetReport summarizes the snapshot/fleet benchmark: how fast tenant
// machines can be stamped from a frozen golden image versus booted from
// scratch, and the aggregate syscall throughput of the whole fleet
// running concurrent per-tenant workloads.
type FleetReport struct {
	Tenants          int     `json:"tenants"`
	FreshBootsPerSec float64 `json:"fresh_boots_per_sec"`
	ClonesPerSec     float64 `json:"clones_per_sec"`
	// CloneSpeedup is the median paired-round ratio of fresh-boot time
	// over clone time per machine; the CI gate requires at least 10x.
	CloneSpeedup         float64 `json:"clone_speedup"`
	WorkloadOpsPerTenant int     `json:"workload_ops_per_tenant"`
	FleetSeconds         float64 `json:"fleet_seconds"`
	FleetOpsPerSec       float64 `json:"fleet_ops_per_sec"`
	TraceEventsEmitted   uint64  `json:"trace_events_emitted"`
	IsolationProblems    int     `json:"isolation_problems"`
}

// fleetRounds is the paired round count of the clone-speedup
// measurement, each round one fresh world.Build against one Stamp batch
// of tenants/3 clones. The per-machine clone rate depends on the batch
// size, so the batch stays the one the gate has always timed; five rounds
// time at least the five fresh boots and the `tenants` clones the fleet
// report has always timed.
const fleetRounds = 5

// MeasureCloneSpeedup measures how much faster a tenant is stamped from a
// frozen golden image than booted from scratch. It boots a probe fleet
// and runs the paired harness with arm A one fresh world.Build per round
// and arm B one Stamp batch of ceil(tenants/3) clones, each timed per
// machine. speedup is the median per-round fresh/clone time ratio, the
// statistic the 10x clone-rate gate judges; the rates are aggregates over
// all timed rounds.
func MeasureCloneSpeedup(tenants int) (speedup, freshPerSec, clonesPerSec float64, err error) {
	probe, err := fleet.NewManager(kernel.ModeProtego)
	if err != nil {
		return 0, 0, 0, err
	}
	fresh := Arm{Name: "fresh boot", Run: nsPerOp(1, func(int) error {
		_, err := world.Build(world.Options{Mode: kernel.ModeProtego})
		return err
	})}
	clone := Arm{Name: "clone", Run: nsPerOp(max(1, (tenants+2)/3), probe.Stamp)}
	res, err := Paired(fleetRounds, fresh, clone)
	if err != nil {
		return 0, 0, 0, err
	}
	return 1 / res.MedianRatio, 1e9 / res.A.Mean, 1e9 / res.B.Mean, nil
}

// RunFleet measures the clone speedup, stamps `tenants` machines, then
// runs `ops` mixed syscalls per tenant across the whole fleet
// concurrently and audits isolation.
func RunFleet(tenants, ops int) (*FleetReport, error) {
	rep := &FleetReport{Tenants: tenants, WorkloadOpsPerTenant: ops}
	var err error
	rep.CloneSpeedup, rep.FreshBootsPerSec, rep.ClonesPerSec, err = MeasureCloneSpeedup(tenants)
	if err != nil {
		return nil, err
	}
	f, err := fleet.NewManager(kernel.ModeProtego)
	if err != nil {
		return nil, err
	}
	if err := f.Stamp(tenants); err != nil {
		return nil, err
	}

	start := time.Now()
	if err := f.RunWorkloads(ops); err != nil {
		return nil, err
	}
	rep.FleetSeconds = time.Since(start).Seconds()
	if rep.FleetSeconds > 0 {
		rep.FleetOpsPerSec = float64(tenants*ops) / rep.FleetSeconds
	}
	agg := f.AggregateCounters()
	rep.TraceEventsEmitted = agg.Emitted
	rep.IsolationProblems = len(f.CheckIsolation())
	return rep, nil
}

// Clean reports whether the fleet run kept every tenant isolated.
func (r *FleetReport) Clean() bool { return r.IsolationProblems == 0 }

// FormatFleet renders the report for the protego-bench -fleet mode.
func FormatFleet(r *FleetReport) string {
	var b strings.Builder
	b.WriteString("Fleet: COW machine snapshots, multi-tenant control plane\n")
	fmt.Fprintf(&b, "  tenants=%d stamped at %.1f machines/s (fresh boot: %.1f/s, speedup %.1fx)\n",
		r.Tenants, r.ClonesPerSec, r.FreshBootsPerSec, r.CloneSpeedup)
	fmt.Fprintf(&b, "  workload: %d ops/tenant in %.2fs (%.0f fleet ops/s, %d trace events)\n",
		r.WorkloadOpsPerTenant, r.FleetSeconds, r.FleetOpsPerSec, r.TraceEventsEmitted)
	fmt.Fprintf(&b, "  isolation problems: %d\n", r.IsolationProblems)
	return b.String()
}
