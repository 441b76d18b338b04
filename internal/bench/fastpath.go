package bench

import (
	"fmt"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// FastpathReport records the compiled policy indexes' fast-path
// counters over the paper's Figure 1 flow (user mount + umount through
// the real /bin/mount and /bin/umount binaries), read from the tracer's
// fast-path registry — the same numbers /proc/trace/stats shows.
type FastpathReport struct {
	Iters    int               `json:"iters"`
	Counters map[string]uint64 `json:"counters"`
}

// statPath is the deep path the parallel stat and open/close rows
// resolve. Deep on purpose: every component is a directory the walk must
// permission-check.
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

// MeasureFastpath runs the Figure 1 mount flow on a fresh Protego
// machine and harvests its fast-path counters.
func MeasureFastpath(iters int) (*FastpathReport, error) {
	if iters <= 0 {
		iters = 20000
	}
	m, err := world.Build(world.Options{Mode: kernel.ModeProtego})
	if err != nil {
		return nil, err
	}
	if err := mountFlow(m, iters/40+50); err != nil {
		return nil, fmt.Errorf("fastpath mount flow: %w", err)
	}
	return &FastpathReport{Iters: iters, Counters: m.K.Trace.FastpathCounters()}, nil
}
