package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"protego/internal/lsm"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// The parallel suite measures multi-core syscall throughput: every test
// is a hot path from the Table 5 / Figure 1 evaluation, re-run with N
// workers hammering one shared Protego machine. Each worker gets its own
// session (and, where the path mutates shared state, its own device and
// mountpoint), so the measured contention is the kernel's — task-table
// shards, copy-on-write registries, RWMutex substrates, the tracer's
// counter cells — not the harness's.

// ParallelOp is one worker's operation; iter is the iteration index.
type ParallelOp func(iter int) error

// ParallelTest is one entry of the parallel suite. Setup builds a fresh
// Protego machine plus per-worker state and returns one op per worker.
type ParallelTest struct {
	Name string
	// Iters is the per-worker iteration count of a full (non-quick) run,
	// sized so every test finishes in roughly the same wall time.
	Iters int
	Setup func(workers int) ([]ParallelOp, error)
}

// ParallelSuite returns the parallel hot-path tests: stat and open/close
// of a deep path, the mount-whitelist check, the netfilter
// verdict, sudo delegation, and the paper's full Figure 1 mount flow.
func ParallelSuite() []ParallelTest {
	return []ParallelTest{
		{Name: "stat", Iters: 20000, Setup: setupStat},
		{Name: "open-close", Iters: 10000, Setup: setupOpenClose},
		{Name: "mount-whitelist-check", Iters: 20000, Setup: setupMountCheck},
		{Name: "netfilter-verdict", Iters: 20000, Setup: setupNetfilterVerdict},
		{Name: "sudo-delegation", Iters: 200, Setup: setupSudoDelegation},
		{Name: "figure1-mount-flow", Iters: 60, Setup: setupMountFlow},
	}
}

// setupStat: every worker stats the same deep path as its own alice
// session, walking the inode tree on every call.
func setupStat(workers int) ([]ParallelOp, error) {
	m, err := buildFastpathMachine()
	if err != nil {
		return nil, err
	}
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		t, err := m.Session("alice")
		if err != nil {
			return nil, err
		}
		ops[w] = func(int) error {
			_, err := m.K.Stat(t, statPath)
			return err
		}
	}
	return ops, nil
}

// setupOpenClose: open+close of the shared probe file per iteration.
func setupOpenClose(workers int) ([]ParallelOp, error) {
	m, err := buildFastpathMachine()
	if err != nil {
		return nil, err
	}
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		t, err := m.Session("alice")
		if err != nil {
			return nil, err
		}
		ops[w] = func(int) error {
			fd, err := m.K.Open(t, statPath, 0 /* O_RDONLY */)
			if err != nil {
				return err
			}
			return m.K.CloseFD(t, fd)
		}
	}
	return ops, nil
}

// setupMountCheck: the pure LSM read path — probe the compiled mount
// whitelist with the fstab's cdrom rule; the decision must be Grant.
func setupMountCheck(workers int) ([]ParallelOp, error) {
	m, err := world.BuildProtego()
	if err != nil {
		return nil, err
	}
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		t, err := m.Session("alice")
		if err != nil {
			return nil, err
		}
		req := &lsm.MountRequest{
			Device: "/dev/cdrom", Point: "/cdrom", FSType: "iso9660",
			Options: []string{"ro"}, ReadOnly: true,
		}
		ops[w] = func(int) error {
			dec, err := m.K.LSM.MountCheck(t, req)
			if err != nil {
				return err
			}
			if dec != lsm.Grant {
				return fmt.Errorf("mount check: decision %v, want Grant", dec)
			}
			return nil
		}
	}
	return ops, nil
}

// setupNetfilterVerdict: the OUTPUT-chain verdict for an unprivileged raw
// ICMP echo (the packet ping sends under the Protego relaxation). Also
// the hottest writer of the tracer's counter cells: every verdict bumps
// the handle its rule took at install.
func setupNetfilterVerdict(workers int) ([]ParallelOp, error) {
	m, err := world.BuildProtego()
	if err != nil {
		return nil, err
	}
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		pkt := &netstack.Packet{
			Dst:      netstack.IPv4(10, 0, 0, 1),
			Proto:    netstack.IPPROTO_ICMP,
			ICMPType: netstack.ICMPEchoRequest,
			FromRaw:  true, UnprivRaw: true, SenderUID: 1000,
		}
		ops[w] = func(int) error {
			if v := m.K.Filter.Output(pkt); v != netstack.Accept {
				return fmt.Errorf("netfilter: verdict %v, want Accept", v)
			}
			return nil
		}
	}
	return ops, nil
}

// setupSudoDelegation: charlie is in wheel, whose sudoers rule grants
// /bin/ls as root NOPASSWD — the password-less delegation fast path,
// spawning a real sudo child per iteration (fork/exec/exit included).
func setupSudoDelegation(workers int) ([]ParallelOp, error) {
	m, err := world.BuildProtego()
	if err != nil {
		return nil, err
	}
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		t, err := m.Session("charlie")
		if err != nil {
			return nil, err
		}
		ops[w] = func(int) error {
			code, _, stderr, err := m.Run(t, []string{userspace.BinSudo, userspace.BinLs, "/"}, nil)
			if err != nil || code != 0 {
				return fmt.Errorf("sudo: code=%d err=%v stderr=%q", code, err, stderr)
			}
			return nil
		}
	}
	return ops, nil
}

// setupMountFlow: the paper's Figure 1 flow — user mount + umount through
// the real /bin/mount and /bin/umount binaries — with a private device,
// mountpoint, and fstab rule per worker so the flows do not serialize on
// VFS mount-table conflicts.
func setupMountFlow(workers int) ([]ParallelOp, error) {
	m, err := world.BuildProtego()
	if err != nil {
		return nil, err
	}
	fs := m.K.FS
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		dev := fmt.Sprintf("/dev/pbench%d", w)
		point := fmt.Sprintf("/mnt/pbench%d", w)
		if _, err := fs.Mknod(vfs.RootCred, dev, vfs.BlockDevice, 8, 100+w, 0o660, 0, 0); err != nil {
			return nil, err
		}
		if err := fs.MkdirAll(vfs.RootCred, point, 0o755, 0, 0); err != nil {
			return nil, err
		}
		line := fmt.Sprintf("%s %s ext4 rw,user,noauto 0 0\n", dev, point)
		if err := fs.AppendFile(vfs.RootCred, "/etc/fstab", []byte(line)); err != nil {
			return nil, err
		}
	}
	// One monitord reload publishes the per-worker rules to the kernel.
	if err := m.Monitor.SyncMounts(); err != nil {
		return nil, err
	}
	for w := 0; w < workers; w++ {
		dev := fmt.Sprintf("/dev/pbench%d", w)
		point := fmt.Sprintf("/mnt/pbench%d", w)
		t, err := m.Session("alice")
		if err != nil {
			return nil, err
		}
		ops[w] = func(int) error {
			code, _, stderr, err := m.Run(t, []string{userspace.BinMount, dev, point}, nil)
			if err != nil || code != 0 {
				return fmt.Errorf("mount %s: code=%d err=%v stderr=%q", dev, code, err, stderr)
			}
			code, _, stderr, err = m.Run(t, []string{userspace.BinUmount, point}, nil)
			if err != nil || code != 0 {
				return fmt.Errorf("umount %s: code=%d err=%v stderr=%q", point, code, err, stderr)
			}
			return nil
		}
	}
	return ops, nil
}

// ScalingPoint is one (GOMAXPROCS, throughput) sample.
type ScalingPoint struct {
	Procs     int     `json:"gomaxprocs"`
	Workers   int     `json:"workers"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// SpeedupVs1 is this point's throughput over the same test's
	// 1-proc throughput.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// ScalingRow is one test's throughput curve across the sweep.
type ScalingRow struct {
	Name   string         `json:"name"`
	Points []ScalingPoint `json:"points"`
}

// ScalingReport is the `scaling` section of BENCH_protego.json.
type ScalingReport struct {
	// HostCPUs is runtime.NumCPU() on the measuring host. Speedups are
	// physically bounded by it: on a 1-core host every curve is flat
	// regardless of how scalable the kernel is, so consumers must read
	// the curves relative to this field.
	HostCPUs       int          `json:"host_cpus"`
	Procs          []int        `json:"gomaxprocs_sweep"`
	ItersPerWorker string       `json:"iters_per_worker"`
	Note           string       `json:"note,omitempty"`
	Rows           []ScalingRow `json:"rows"`
}

// scalingReps is the best-of repetition count per point (minimum wall
// time wins, like the micro harness).
const scalingReps = 3

// DefaultScalingSweep is the GOMAXPROCS sweep of the acceptance
// criterion: 1, 2, 4, and 8 procs.
func DefaultScalingSweep() []int { return []int{1, 2, 4, 8} }

// MeasureScaling runs every parallel test across the GOMAXPROCS sweep.
// iterScale scales each test's per-worker iteration count (1.0 = full
// run; quick runs pass a fraction). One machine is built per test and
// shared across the sweep, so later points run with warm caches; workers
// always equal procs, and each worker runs the test's per-worker op.
func MeasureScaling(procs []int, iterScale float64) (*ScalingReport, error) {
	if len(procs) == 0 {
		procs = DefaultScalingSweep()
	}
	if iterScale <= 0 {
		iterScale = 1.0
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	rep := &ScalingReport{
		HostCPUs:       runtime.NumCPU(),
		Procs:          procs,
		ItersPerWorker: fmt.Sprintf("suite defaults x %g", iterScale),
	}
	maxProcs := 0
	for _, p := range procs {
		if p > maxProcs {
			maxProcs = p
		}
	}
	if rep.HostCPUs < maxProcs {
		rep.Note = fmt.Sprintf("host has %d CPU(s): points beyond it time-slice "+
			"one core, so parallel speedup is physically capped at %dx",
			rep.HostCPUs, rep.HostCPUs)
	}

	for _, test := range ParallelSuite() {
		iters := int(float64(test.Iters) * iterScale)
		if iters < 1 {
			iters = 1
		}
		ops, err := test.Setup(maxProcs)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", test.Name, err)
		}
		// Warm every worker's path once (fills the dentry cache, the
		// compiled indexes, and the counter snapshots) and surface
		// setup errors outside the timed region.
		for _, op := range ops {
			if err := op(0); err != nil {
				return nil, fmt.Errorf("%s: warmup: %w", test.Name, err)
			}
		}
		row := ScalingRow{Name: test.Name}
		for _, p := range procs {
			sec, err := runParallelPoint(ops[:p], iters, p)
			if err != nil {
				return nil, fmt.Errorf("%s @%d procs: %w", test.Name, p, err)
			}
			pt := ScalingPoint{
				Procs: p, Workers: p, Ops: p * iters,
				OpsPerSec: float64(p*iters) / sec,
			}
			if len(row.Points) > 0 && row.Points[0].OpsPerSec > 0 {
				pt.SpeedupVs1 = pt.OpsPerSec / row.Points[0].OpsPerSec
			} else {
				pt.SpeedupVs1 = 1
			}
			row.Points = append(row.Points, pt)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// runParallelPoint times workers goroutines each running iters ops at
// the given GOMAXPROCS, best of scalingReps, returning seconds of wall
// time for the fastest rep.
func runParallelPoint(ops []ParallelOp, iters, procs int) (float64, error) {
	runtime.GOMAXPROCS(procs)
	best := 0.0
	for rep := 0; rep < scalingReps; rep++ {
		var (
			start = make(chan struct{})
			wg    sync.WaitGroup
			errMu sync.Mutex
			fail  error
		)
		for _, op := range ops {
			wg.Add(1)
			go func(op ParallelOp) {
				defer wg.Done()
				<-start
				for i := 0; i < iters; i++ {
					if err := op(i); err != nil {
						errMu.Lock()
						if fail == nil {
							fail = err
						}
						errMu.Unlock()
						return
					}
				}
			}(op)
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		sec := time.Since(t0).Seconds()
		if fail != nil {
			return 0, fail
		}
		if rep == 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}

// FormatScaling renders the sweep as an aligned text table.
func FormatScaling(rep *ScalingReport) string {
	out := fmt.Sprintf("Parallel scaling sweep (host CPUs: %d)\n", rep.HostCPUs)
	if rep.Note != "" {
		out += "note: " + rep.Note + "\n"
	}
	out += fmt.Sprintf("%-24s %6s %12s %10s\n", "test", "procs", "ops/sec", "speedup")
	for _, row := range rep.Rows {
		for _, pt := range row.Points {
			out += fmt.Sprintf("%-24s %6d %12.0f %9.2fx\n",
				row.Name, pt.Procs, pt.OpsPerSec, pt.SpeedupVs1)
		}
	}
	return out
}
