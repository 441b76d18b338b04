package bench

import (
	"testing"

	"protego/internal/kernel"
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
