package main

import (
	"fmt"
	"strings"
	"time"

	"protego/internal/kernel"
	"protego/internal/world"
)

// Seeds. devSeed is the seed the benchmark was developed and tuned on;
// holdoutSeed was never run while tuning, so a later performance claim
// can be checked on inputs it was not fitted to.
const (
	devSeed     = 1
	holdoutSeed = 7919
)

var modes = [2]kernel.Mode{kernel.ModeLinux, kernel.ModeProtego}

// imagePair is a booted baseline and Protego machine, indexed by arm.
type imagePair struct {
	m       [2]*world.Machine
	buildNs [2]time.Duration
}

// buildPair boots both images with world.Build, timing each boot.
func buildPair() (*imagePair, error) {
	p := &imagePair{}
	for i, mode := range modes {
		start := time.Now()
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", mode, err)
		}
		p.buildNs[i] = time.Since(start)
		p.m[i] = m
	}
	return p, nil
}

// buildMs is the mean boot time of the two images in milliseconds.
func (p *imagePair) buildMs() float64 {
	return float64(p.buildNs[0]+p.buildNs[1]) / 2 / 1e6
}

// monitordTargets are the monitoring daemon's synchronization targets.
var monitordTargets = []string{"mounts", "delegation", "bind", "ppp", "accounts-legacy", "accounts-fragments"}

// addMachineCounters adds the counters a machine exposes to out. Keys
// without an image prefix are summed over images; "<image>.syscalls" and
// "<image>.syscall.<name>" come from the tracer's per-syscall histogram
// counts. Every one is a deterministic function of the ops run, since a
// workload drives its machines from one goroutine.
func addMachineCounters(out map[string]uint64, img string, m *world.Machine) {
	tr := m.K.Trace
	for k, v := range tr.FastpathCounters() {
		out[k] += v
	}
	st := tr.Stats()
	out["trace.emitted"] += st.Emitted
	out["trace.dropped"] += st.Dropped
	for key, h := range tr.Histograms() {
		if name, ok := strings.CutPrefix(key, "syscall:"); ok {
			out[img+".syscall."+name] += h.Count
			out[img+".syscalls"] += h.Count
		}
	}
	for key, n := range tr.Counters() {
		if key.Hook == "netfilter:OUTPUT" {
			out["netfilter.verdicts"] += n
		}
	}
	if m.Protego != nil {
		s := m.Protego.Stats.Snapshot()
		for name, v := range map[string]int64{
			"mount_grants": s.MountGrants, "mount_denials": s.MountDenials,
			"bind_grants": s.BindGrants, "bind_denials": s.BindDenials,
			"setuid_grants": s.SetuidGrants, "setuid_defers": s.SetuidDefers,
			"setuid_denials": s.SetuidDenials, "rawsock_grants": s.RawSockGrants,
			"route_grants": s.RouteGrants, "route_denials": s.RouteDenials,
			"file_grants": s.FileGrants, "file_denials": s.FileDenials,
		} {
			out["core."+name] += uint64(v)
		}
		out["core.mount_checks"] += uint64(s.MountGrants + s.MountDenials)
	}
	if m.Monitor != nil {
		for _, t := range monitordTargets {
			n := uint64(m.Monitor.SyncCount(t))
			out["monitord.sync."+t] += n
			out["monitord.syncs"] += n
		}
	}
}

// counters is addMachineCounters over both images of the pair.
func (p *imagePair) counters() map[string]uint64 {
	out := map[string]uint64{}
	for i, m := range p.m {
		addMachineCounters(out, armNames[i], m)
	}
	return out
}
