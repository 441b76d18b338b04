package bench

import (
	"fmt"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// FastpathReport quantifies the kernel fast paths — the VFS dentry cache
// and the compiled policy indexes. The before/after timing pair is a
// lookup-bound stat loop over a deep path with the dentry cache disabled
// and enabled (the mount flow itself is dominated by process spawning, so
// the cache's effect would drown in its noise). The hit ratio and the
// counters come from the paper's Figure 1 flow (user mount + umount
// through the real /bin/mount and /bin/umount binaries), read from the
// tracer's fast-path registry — the same numbers /proc/trace/stats shows.
type FastpathReport struct {
	Iters             int     `json:"iters"`
	LookupColdNsPerOp float64 `json:"lookup_dcache_off_ns_per_op"`
	LookupWarmNsPerOp float64 `json:"lookup_dcache_on_ns_per_op"`
	// SpeedupPct is 1 - warm/cold on the lookup loop, from the median
	// paired ratio, as a percentage.
	SpeedupPct float64 `json:"lookup_speedup_pct"`
	// MountFlowHitRatio is the dentry-cache hit ratio over the Figure 1
	// mount/umount flow (the acceptance bar is > 0.90).
	MountFlowHitRatio float64           `json:"mount_flow_dcache_hit_ratio"`
	Counters          map[string]uint64 `json:"counters"`
}

// statPath is the deep path the lookup loop resolves. Deep on purpose:
// every component is a directory the walk must permission-check.
const statPath = "/usr/share/doc/protego/fastpath/README"

// mountFlow runs the Figure 1 flow iters times on m as alice.
func mountFlow(m *world.Machine, iters int) error {
	alice, err := m.Session("alice")
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		code, _, stderr, err := m.Run(alice, []string{userspace.BinMount, "/dev/cdrom", "/cdrom"}, nil)
		if err != nil || code != 0 {
			return fmt.Errorf("mount: code=%d err=%v stderr=%q", code, err, stderr)
		}
		code, _, stderr, err = m.Run(alice, []string{userspace.BinUmount, "/cdrom"}, nil)
		if err != nil || code != 0 {
			return fmt.Errorf("umount: code=%d err=%v stderr=%q", code, err, stderr)
		}
	}
	return nil
}

// buildFastpathMachine builds a Protego machine carrying statPath.
func buildFastpathMachine() (*world.Machine, error) {
	m, err := world.Build(world.Options{Mode: kernel.ModeProtego})
	if err != nil {
		return nil, err
	}
	fs := m.K.FS
	if err := fs.MkdirAll(vfs.RootCred, "/usr/share/doc/protego/fastpath", 0o755, 0, 0); err != nil {
		return nil, err
	}
	if err := fs.WriteFile(vfs.RootCred, statPath, []byte("fastpath probe\n"), 0o644, 0, 0); err != nil {
		return nil, err
	}
	return m, nil
}

// MeasureFastpath measures the lookup loop on two fresh Protego machines
// (dentry cache disabled vs enabled) with the paired harness, then runs
// the Figure 1 mount flow on the cached machine and harvests its
// fast-path counters.
func MeasureFastpath(iters int) (*FastpathReport, error) {
	if iters <= 0 {
		iters = 20000
	}
	var machines [2]*world.Machine
	var arms [2]Arm
	for i, name := range []string{"dcache off", "dcache on"} {
		m, err := buildFastpathMachine()
		if err != nil {
			return nil, err
		}
		m.K.FS.SetDcacheEnabled(i == 1)
		alice, err := m.Session("alice")
		if err != nil {
			return nil, err
		}
		machines[i] = m
		arms[i] = Arm{Name: name, Run: nsPerOp(max(1, iters*microReps/pairRounds), func(n int) error {
			for j := 0; j < n; j++ {
				if _, err := m.K.Stat(alice, statPath); err != nil {
					return err
				}
			}
			return nil
		})}
	}
	lookup, err := Paired(pairRounds, arms[0], arms[1])
	if err != nil {
		return nil, fmt.Errorf("fastpath lookup: %w", err)
	}
	warm := machines[1]

	// Figure 1 flow on the cached machine: hit ratio over mount/umount.
	preHits, preMisses := warm.K.FS.DcacheStats().Hits, warm.K.FS.DcacheStats().Misses
	if err := mountFlow(warm, iters/40+50); err != nil {
		return nil, fmt.Errorf("fastpath mount flow: %w", err)
	}
	st := warm.K.FS.DcacheStats()
	flowHits, flowMisses := st.Hits-preHits, st.Misses-preMisses
	hitRatio := 0.0
	if flowHits+flowMisses > 0 {
		hitRatio = float64(flowHits) / float64(flowHits+flowMisses)
	}

	return &FastpathReport{
		Iters:             iters,
		LookupColdNsPerOp: lookup.A.Mean,
		LookupWarmNsPerOp: lookup.B.Mean,
		SpeedupPct:        (1 - lookup.MedianRatio) * 100,
		MountFlowHitRatio: hitRatio,
		Counters:          warm.K.Trace.FastpathCounters(),
	}, nil
}
