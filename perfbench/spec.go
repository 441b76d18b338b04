package main

import (
	"encoding/json"
	"fmt"
)

// runSeconds is how long one run measures.
const runSeconds = 20

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload. The timing bounds are wide because the
// 2-CPU host the benchmark was tuned on drifts by up to a fifth in speed
// over minutes (ten consecutive syscall_mix runs measured 128k-153k
// pairs/s); the counts are steady and get tight bounds. An op is one
// syscall or one utility flow on one image (syscall_mix, utility_flows),
// one differential trace (difffuzz) or one generated environment
// (vulngen); a pair is an op run on both images.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pairs_per_s", "1/s", "higher", 0.25},
	{"op_us_p50", "us", "lower", 0.25},
	{"op_us_p90", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.1},
}

// syscall_mix call names, in the order the per-layer metrics list them.
var mixCalls = []string{
	"getpid", "read", "write", "stat", "open_close", "sigaction",
	"stat_missing", "fork_exit", "spawn", "create_unlink",
	"mount_umount", "setuid", "setgid", "ioctl", "bind", "socket_raw",
}

// lsmHooks are the chain hooks the traced run times, by metric name.
var lsmHooks = []string{
	"mount", "umount", "socket_create", "bind", "ioctl", "setuid", "setgid", "file_open",
}

// flowUtilities are the utility_flows flows, by metric name.
var flowUtilities = []string{"mount", "umount", "sudo", "ping", "passwd"}

// layers are the modules whose self time per op the traced run reports:
// the ones the benchmark calls inside a measured op (kernel, userspace,
// monitord) or inside a decomposed one (world, difffuzz, exploits,
// vulngen). The benchmark reaches vfs, lsm, core, apparmor, netfilter,
// trace, authsvc, accountdb and policy only through direct probes outside
// any op, so those layers have per-call p50s and no self time per op.
var layers = []string{"kernel", "userspace", "monitord", "world", "difffuzz", "exploits", "vulngen"}

// perLayer returns the traced run's metrics. Every workload reports every
// one; a layer the workload does not reach reads 0.
func perLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	var out []metricDef
	for _, img := range armNames {
		out = append(out, higher(img+".ops_per_s", "1/s"),
			lower(img+".op_us_p50", "us"), lower(img+".op_us_p99", "us"))
	}
	out = append(out,
		lower("core.overhead_ratio", "ratio"),
		lower("error_ratio", "ratio"),
		lower("trace.overhead_pairs_per_s", "1/s"))
	for _, img := range armNames {
		for _, c := range mixCalls {
			out = append(out, lower(img+".kernel."+c+".ns_p50", "ns"))
		}
	}
	out = append(out,
		lower("kernel.allocs_per_call", "count"),
		lower("vfs.lookup.ns_p50", "ns"),
		higher("vfs.dcache_hit_ratio", "ratio"),
		lower("vfs.dcache_invalidations_per_op", "count"))
	for _, img := range armNames {
		for _, h := range lsmHooks {
			out = append(out, lower(img+".lsm."+h+".ns_p50", "ns"))
		}
	}
	for _, h := range lsmHooks {
		out = append(out, lower("core."+h+".ns_p50", "ns"))
	}
	out = append(out,
		lower("apparmor.file_open.ns_p50", "ns"),
		higher("core.mountidx_hit_ratio", "ratio"),
		higher("lsm.syscall_allow_fastpath", "count"),
		lower("netfilter.output.ns_p50", "ns"),
		higher("netfilter.index_fastpath_ratio", "ratio"),
		lower("trace.events_per_op", "count"),
		lower("trace.dropped_per_op", "count"),
		lower("trace.emit.ns_p50", "ns"),
		lower("monitord.sync_accounts.ns_p50", "ns"),
		lower("monitord.syncs_per_op", "count"),
		lower("authsvc.verify_password.ns_p50", "ns"),
		lower("accountdb.shadow_hash.ns_p50", "ns"),
		lower("policy.sudoers_lookup.ns_p50", "ns"),
		lower("policy.parse_fstab.ns_p50", "ns"))
	for _, img := range armNames {
		for _, u := range flowUtilities {
			out = append(out, lower(img+".userspace."+u+".us_p50", "us"))
		}
		out = append(out, lower(img+".kernel.syscalls_per_flow", "count"))
	}
	out = append(out,
		lower("world.build.ms", "ms"),
		lower("world.clone.us_p50", "us"),
		lower("world.fingerprint.us_p50", "us"),
		lower("world.fingerprints_per_pair", "count"),
		lower("world.fingerprint_share", "ratio"),
		lower("difffuzz.run.ms_p50", "ms"),
		lower("difffuzz.replay.ms_p50", "ms"),
		lower("difffuzz.steps_per_trace", "count"),
		lower("difffuzz.explained_per_trace", "count"),
		lower("exploits.run_cve.us_p50", "us"),
		lower("vulngen.apply.us_p50", "us"),
		lower("vulngen.replays_per_env", "count"),
		lower("vulngen.concessions_per_env", "count"),
		lower("go.gc_cycles_per_op", "count"),
		lower("go.gc_pause_ns_per_op", "ns"))
	for _, l := range layers {
		out = append(out, lower("self."+l+".us_per_op", "us"))
	}
	return out
}

// benchmarkSpec is the BENCHMARK.json document.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// specJSON renders BENCHMARK.json from the definitions above, so the file
// and the program cannot drift apart (spec_test.go compares them).
func specJSON() ([]byte, error) {
	s := benchmarkSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadDoc{Name: w.name, Why: w.why})
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render spec: %w", err)
	}
	return append(b, '\n'), nil
}
