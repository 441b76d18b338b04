package bench

import (
	"fmt"
	"strings"

	"protego/internal/kernel"
)

// Row is one Table 5 row: the measurement under both kernels, with the
// ±95% confidence half-widths the paper's +/- columns report.
type Row struct {
	Name      string
	Unit      string
	Linux     float64
	LinuxCI   float64
	Protego   float64
	ProtegoCI float64
	// HigherIsBetter flips the overhead sign convention (bandwidth,
	// throughput rows).
	HigherIsBetter bool
	// PaperOverheadPct is the published % OH column for comparison.
	PaperOverheadPct float64
}

// OverheadPct computes Protego's overhead relative to the baseline,
// positive when Protego is worse.
func (r *Row) OverheadPct() float64 {
	if r.Linux == 0 {
		return 0
	}
	oh := (r.Protego - r.Linux) / r.Linux * 100
	if r.HigherIsBetter {
		oh = -oh
	}
	return oh
}

// paperOverheads maps row names to the paper's % OH column.
var paperOverheads = map[string]float64{
	"syscall": 0.00, "read": 0.00, "write": 0.00, "stat": -2.94,
	"open/close": 0.00, "mount/umnt": 1.13, "setuid": 1.22, "setgid": 1.22,
	"ioctl": 0.72, "bind": 2.25, "sig install": 0.00, "sig overhead": 0.00,
	"prot. fault": 0.00, "fork+exit": -0.63, "fork+execve": 3.43,
	"fork+/bin/sh": 3.90, "0KB create": -2.51, "10KB create": -1.82,
	"AF_UNIX": 4.19, "Pipe": 2.23, "TCP connect": 3.05,
	"Local TCP lat": 6.32, "Local UDP lat": 7.19,
	"Rem. UDP lat": 6.38, "Rem. TCP lat": 7.38, "BW 64KB xfer": 2.74,
	"Postal msgs/min": -0.04, "Kernel compile": 1.44,
	"Web ms/req 25 conc": 3.57, "Web ms/req 50 conc": 3.85,
	"Web ms/req 100 conc": 4.00, "Web ms/req 200 conc": 2.65,
	"Web KB/s 25 conc": 4.05, "Web KB/s 50 conc": 3.95,
	"Web KB/s 100 conc": 3.96, "Web KB/s 200 conc": 2.64,
}

// tableRow turns a paired run (Linux as arm A) into a Table 5 row, its
// values multiplied by scale to reach the row's unit.
func tableRow(name, unit string, res PairResult, scale float64) Row {
	return Row{
		Name: name, Unit: unit,
		Linux: res.A.Mean * scale, LinuxCI: res.A.CI95 * scale,
		Protego: res.B.Mean * scale, ProtegoCI: res.B.CI95 * scale,
		PaperOverheadPct: paperOverheads[name],
	}
}

// Table5Config scales the workloads (smaller for tests, larger for the
// published run).
type Table5Config struct {
	PostalMessages int
	CompileFiles   int
	WebRequests    int
	WebConcurrency []int
	SkipMacro      bool
}

// DefaultTable5Config mirrors the paper's workload mix at
// simulation-appropriate scale.
func DefaultTable5Config() Table5Config {
	return Table5Config{
		PostalMessages: 300,
		CompileFiles:   400,
		WebRequests:    2000,
		WebConcurrency: []int{25, 50, 100, 200},
	}
}

// macroReps is the number of paired rounds per macro workload: a round
// is a whole Postal, compile or web run on each kernel.
const macroReps = 5

// RunTable5 measures every row under both kernels with the paired
// harness; rows report mean ± 95% CI.
func RunTable5(cfg Table5Config) ([]Row, error) {
	rows, err := microRows()
	if err != nil || cfg.SkipMacro {
		return rows, err
	}
	macro := func(name, unit string, higherBetter bool, run func(mode kernel.Mode) (float64, error)) error {
		arm := func(mode kernel.Mode) Arm {
			return Arm{Name: mode.String(), Run: func() (float64, error) { return run(mode) }}
		}
		res, err := Paired(macroReps, arm(kernel.ModeLinux), arm(kernel.ModeProtego))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		row := tableRow(name, unit, res, 1)
		row.HigherIsBetter = higherBetter
		rows = append(rows, row)
		return nil
	}
	if err := macro("Postal msgs/min", "msgs/min", true, func(mode kernel.Mode) (float64, error) {
		res, err := RunPostal(mode, cfg.PostalMessages)
		if err != nil {
			return 0, err
		}
		return res.MsgsPerMin, nil
	}); err != nil {
		return nil, err
	}
	if err := macro("Kernel compile", "ms", false, func(mode kernel.Mode) (float64, error) {
		res, err := RunCompile(mode, cfg.CompileFiles)
		if err != nil {
			return 0, err
		}
		return float64(res.Elapsed.Microseconds()) / 1000, nil
	}); err != nil {
		return nil, err
	}
	for _, conc := range cfg.WebConcurrency {
		if err := macro(fmt.Sprintf("Web ms/req %d conc", conc), "ms", false, func(mode kernel.Mode) (float64, error) {
			res, err := RunWeb(mode, conc, cfg.WebRequests)
			if err != nil {
				return 0, err
			}
			return res.MsPerRequest, nil
		}); err != nil {
			return nil, err
		}
		if err := macro(fmt.Sprintf("Web KB/s %d conc", conc), "KB/s", true, func(mode kernel.Mode) (float64, error) {
			res, err := RunWeb(mode, conc, cfg.WebRequests)
			if err != nil {
				return 0, err
			}
			return res.TransferKBps, nil
		}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatTable5 renders the rows in the paper's layout (Linux, +/-,
// Protego, +/-, % OH).
func FormatTable5(rows []Row) string {
	var b strings.Builder
	b.WriteString("Table 5: Protego overheads compared to Linux with AppArmor\n")
	fmt.Fprintf(&b, "%-22s %12s %8s %12s %8s %9s %9s  %s\n",
		"Test", "Linux", "+/-", "Protego", "+/-", "% OH", "Paper%", "Unit")
	for i := range rows {
		r := &rows[i]
		// Rows whose confidence intervals overlap are statistically
		// indistinguishable — the paper's criterion for "noise".
		noise := ""
		l := Sample{Mean: r.Linux, CI95: r.LinuxCI}
		p := Sample{Mean: r.Protego, CI95: r.ProtegoCI}
		if l.Overlaps(p) {
			noise = " ~"
		}
		fmt.Fprintf(&b, "%-22s %12.3f %8.3f %12.3f %8.3f %+9.2f %+9.2f  %s%s\n",
			r.Name, r.Linux, r.LinuxCI, r.Protego, r.ProtegoCI,
			r.OverheadPct(), r.PaperOverheadPct, r.Unit, noise)
	}
	b.WriteString("\n'~' marks rows whose 95% CIs overlap (differences within noise).\n")
	b.WriteString("Paper range: 0-7.4% overhead; kernel compile 1.44%.\n")
	return b.String()
}
