// Command protego-fleet simulates a multi-tenant fleet: it boots one
// golden Protego machine, freezes it, stamps N tenant machines from the
// snapshot copy-on-write, runs a mixed syscall workload on every tenant
// concurrently, pushes a mount-policy update from the shared control
// plane to all tenants (one monitord reload each), and audits
// cross-tenant isolation.
//
//	protego-fleet -tenants 64 -ops 30          fleet smoke run
//	protego-fleet -tenants 256 -gate 10        CI gate: also require the
//	                                           clone rate to be at least
//	                                           10x a fresh world.Build
//
// The -gate measurement is the bench package's paired harness
// (bench.MeasureCloneSpeedup, shared with protego-bench -fleet): rounds of
// one fresh boot against one clone batch on a probe fleet, the first arm
// alternating every round. It gates on the median per-round speedup and
// retries once with fresh samples before failing.
//
// Exit status is non-zero on any isolation problem, any tenant missing
// the pushed policy, or (with -gate) a clone rate below the floor.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"protego/internal/bench"
	"protego/internal/fleet"
	"protego/internal/kernel"
)

func main() {
	tenants := flag.Int("tenants", 64, "tenant machines to stamp from the golden snapshot")
	ops := flag.Int("ops", 30, "workload syscalls per tenant")
	gate := flag.Float64("gate", 0, "fail unless clone rate is at least this many times the fresh-boot rate (0 = no gate)")
	push := flag.String("push", "/dev/sde1  /mnt/backup  ext4  rw,user,noauto  0 0",
		"fstab row to push from the control plane ('' = skip the push)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "protego-fleet: "+format+"\n", args...)
		os.Exit(1)
	}

	f, err := fleet.NewManager(kernel.ModeProtego)
	if err != nil {
		fail("%v", err)
	}
	if *gate > 0 {
		const attempts = 2
		var speedup float64
		for try := 1; ; try++ {
			var cloneRate float64
			speedup, _, cloneRate, err = bench.MeasureCloneSpeedup(*tenants)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("clone speedup: %.1fx over fresh boot (median paired round, %.1f machines/s), gate %.1fx\n",
				speedup, cloneRate, *gate)
			if speedup >= *gate || try >= attempts {
				break
			}
			fmt.Printf("below gate, retrying with fresh samples (%d/%d)\n", try, attempts)
		}
		if speedup < *gate {
			fail("clone speedup %.1fx is below the %.1fx gate after %d attempts", speedup, *gate, attempts)
		}
	}
	start := time.Now()
	if err := f.Stamp(*tenants); err != nil {
		fail("%v", err)
	}
	cloneSecs := time.Since(start).Seconds()
	fmt.Printf("stamped %d tenants in %.3fs (%.1f machines/s)\n",
		*tenants, cloneSecs, float64(*tenants)/cloneSecs)
	total := len(f.Tenants())

	start = time.Now()
	if err := f.RunWorkloads(*ops); err != nil {
		fail("workload: %v", err)
	}
	secs := time.Since(start).Seconds()
	fmt.Printf("ran %d ops on each of %d tenants in %.3fs (%.0f fleet ops/s)\n",
		*ops, total, secs, float64(total**ops)/secs)

	if *push != "" {
		if err := f.PushMountPolicy(*push); err != nil {
			fail("policy push: %v", err)
		}
		for _, tn := range f.Tenants() {
			found := false
			for _, r := range tn.Machine.Protego.MountRules() {
				if strings.HasPrefix(*push, r.Device+" ") || strings.Fields(*push)[0] == r.Device {
					found = true
					break
				}
			}
			if !found {
				fail("tenant %d missing pushed policy row", tn.ID)
			}
		}
		fmt.Printf("pushed policy row to %d tenants (one monitord reload each)\n", total)
	}

	if problems := f.CheckIsolation(); len(problems) > 0 {
		fail("isolation violated:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Println("isolation: clean (markers, task tables, golden fingerprint)")

	agg := f.AggregateCounters()
	fmt.Print(agg.String())
}
