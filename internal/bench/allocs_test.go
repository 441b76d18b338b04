package bench

import (
	"fmt"
	"runtime"
	"testing"

	"protego/internal/kernel"
	"protego/internal/lsm"
	"protego/internal/netfilter"
	"protego/internal/netstack"
	"protego/internal/trace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// TestSyscallAllocs gates the allocation cost of the syscall entry path
// on both images: a clean-path stat, also right after its parent
// directory is renamed away and back, and the null syscall allocate
// nothing, and an open/close pair allocates at most its file description
// and fd-table slot. The trace layer is live, as on every machine.
func TestSyscallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured paths")
	}
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := world.Build(world.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			k := m.K
			dir, _ := vfs.SplitPath(seccompProbePath)
			if err := k.FS.MkdirAll(vfs.RootCred, dir, 0o755, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := k.FS.WriteFile(vfs.RootCred, seccompProbePath, []byte("probe\n"), 0o644, 0, 0); err != nil {
				t.Fatal(err)
			}
			sess, err := m.Session("alice")
			if err != nil {
				t.Fatal(err)
			}
			moved := dir + ".moved"
			checkAllocs(t, []allocCase{
				{"stat", 0, func() error { return statOp(k, sess) }},
				{"stat_after_rename", 0, func() error {
					if err := k.FS.Rename(vfs.RootCred, dir, moved); err != nil {
						return err
					}
					if err := k.FS.Rename(vfs.RootCred, moved, dir); err != nil {
						return err
					}
					return statOp(k, sess)
				}},
				{"getpid", 0, func() error { k.Getpid(sess); return nil }},
				{"open_close", 2, func() error { return openCloseOp(k, sess) }},
			})
		})
	}
}

// TestAccountDBAllocs gates the allocation cost of the account database
// lookups on a golden clone of both images whose files are unchanged
// since the snapshot: a parsed table is shared through the sealed inodes,
// so a lookup allocates only what it hands the caller.
func TestAccountDBAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured paths")
	}
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		t.Run(mode.String(), func(t *testing.T) {
			golden, err := world.Build(world.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			m, err := golden.Snapshot().Clone()
			if err != nil {
				t.Fatal(err)
			}
			db := m.DB
			checkAllocs(t, []allocCase{
				{"LookupUID", 1, func() error { _, err := db.LookupUID(world.UIDAlice); return err }},
				{"LookupUser", 1, func() error { _, err := db.LookupUser("alice"); return err }},
				{"ShadowHash", 1, func() error { _, err := db.ShadowHash("alice"); return err }},
				{"GroupIDsOf", 3, func() error { _, err := db.GroupIDsOf("alice"); return err }},
			})
		})
	}
}

// TestCounterAllocs gates the tracer's counters: a traced netfilter
// verdict bumps the handle its rule took at install and allocates
// nothing, and the first bump of each kind of fixed cell on a fresh
// tracer (a decision-matrix cell, a fast-path counter, an auth outcome)
// allocates nothing either. The first-bump case reads the malloc count
// directly, since AllocsPerRun's warm-up call would hide a first-use
// allocation.
func TestCounterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured paths")
	}
	tbl := netfilter.NewTable()
	for _, r := range netfilter.ProtegoDefaultRules() {
		if err := tbl.Append("OUTPUT", r); err != nil {
			t.Fatal(err)
		}
	}
	tbl.SetTracer(trace.New(0))
	echo := &netstack.Packet{Proto: netstack.IPPROTO_ICMP, ICMPType: netstack.ICMPEchoRequest,
		FromRaw: true, UnprivRaw: true, SenderUID: world.UIDAlice}
	checkAllocs(t, []allocCase{
		{"netfilter_icmp_echo", 0, func() error {
			if tbl.Output(echo) != netfilter.Accept {
				return fmt.Errorf("unprivileged echo request dropped")
			}
			return nil
		}},
	})

	tr := trace.New(0)
	slot := tr.ModuleSlot("protego")
	tr.Audit("ring warm-up") // the ring's first slot chunk is not a counter cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.CountHook(trace.HookMount, slot, int(lsm.Grant))
	tr.Count(trace.MountIdxHit)
	tr.AuthCheck(trace.AuthPassword, "alice", 1, world.UIDAlice, true)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("first bump of each fixed-cell kind: %d allocs, want 0", n)
	}
}

// allocCase is one gated operation: op may allocate at most max times
// per call.
type allocCase struct {
	name string
	max  float64
	op   func() error
}

func checkAllocs(t *testing.T, cases []allocCase) {
	t.Helper()
	for _, c := range cases {
		var opErr error
		got := testing.AllocsPerRun(1000, func() {
			if err := c.op(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", c.name, opErr)
		}
		if got > c.max {
			t.Errorf("%s: %.2f allocs/op, want <= %.0f", c.name, got, c.max)
		}
	}
}
