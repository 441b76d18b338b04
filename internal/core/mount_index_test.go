package core

import (
	"testing"

	"protego/internal/caps"
	"protego/internal/kernel"
	"protego/internal/lsm"
	"protego/internal/trace"
)

// idxTask is an unprivileged task for exercising the whitelist directly.
type idxTask struct {
	lsm.NullFilterSlot
	uid int
}

func (t idxTask) PID() int                    { return 100 }
func (t idxTask) UID() int                    { return t.uid }
func (t idxTask) EUID() int                   { return t.uid }
func (t idxTask) GID() int                    { return t.uid }
func (t idxTask) EGID() int                   { return t.uid }
func (t idxTask) Groups() []int               { return nil }
func (t idxTask) Capable(caps.Cap) bool       { return false }
func (t idxTask) BinaryPath() string          { return "/bin/mount" }
func (t idxTask) SecurityBlob(string) any     { return nil }
func (t idxTask) SetSecurityBlob(string, any) {}

func idxModule() *Module {
	tr := trace.New(64)
	m := &Module{k: &kernel.Kernel{Trace: tr}, Stats: Stats{tr: tr}}
	m.SetMountRules([]MountRule{
		{Device: "/dev/cdrom", MountPoint: "/cdrom", FSType: "iso9660",
			Options: []string{"uid=1000"}},
		{Device: "/dev/sdb1", MountPoint: "/media/usb", FSType: "vfat",
			AnyUserUnmount: true},
	})
	return m
}

func mountReq(dev, point, fstype string, opts ...string) *lsm.MountRequest {
	return &lsm.MountRequest{Device: dev, Point: point, FSType: fstype, Options: opts}
}

func TestMountIndexGrantsWhitelisted(t *testing.T) {
	m := idxModule()
	alice := idxTask{uid: 1000}
	cases := []struct {
		req  *lsm.MountRequest
		want lsm.Decision
	}{
		// Exact rule match.
		{mountReq("/dev/cdrom", "/cdrom", "iso9660"), lsm.Grant},
		// Safe options are always merged into the allowed set...
		{mountReq("/dev/cdrom", "/cdrom", "iso9660", "ro", "nosuid", "nodev"), lsm.Grant},
		// ...as are the rule's own options.
		{mountReq("/dev/cdrom", "/cdrom", "iso9660", "uid=1000", "ro"), lsm.Grant},
		// "auto" in the request matches any rule fstype and vice versa.
		{mountReq("/dev/cdrom", "/cdrom", "auto"), lsm.Grant},
		// Unsafe option not in the rule: denied.
		{mountReq("/dev/cdrom", "/cdrom", "iso9660", "suid"), lsm.NoOpinion},
		// Wrong fstype: denied.
		{mountReq("/dev/cdrom", "/cdrom", "ext4"), lsm.NoOpinion},
		// (device, point) not in the whitelist at all.
		{mountReq("/dev/cdrom", "/mnt", "iso9660"), lsm.NoOpinion},
		{mountReq("/dev/sda1", "/cdrom", "iso9660"), lsm.NoOpinion},
	}
	for _, c := range cases {
		got, err := m.MountCheck(alice, c.req)
		if err != nil {
			t.Fatalf("MountCheck(%+v): %v", c.req, err)
		}
		if got != c.want {
			t.Errorf("MountCheck(%+v) = %v, want %v", c.req, got, c.want)
		}
	}
}

func TestMountIndexHitCounter(t *testing.T) {
	m := idxModule()
	alice := idxTask{uid: 1000}
	// Index hit: the (device, point) pair has whitelist rows, whatever
	// the final verdict.
	m.MountCheck(alice, mountReq("/dev/cdrom", "/cdrom", "ext4"))
	m.MountCheck(alice, mountReq("/dev/cdrom", "/cdrom", "iso9660"))
	// Index miss: unknown pair.
	m.MountCheck(alice, mountReq("/dev/zero", "/nowhere", "ext4"))
	if got := m.k.Trace.FastpathCounters()["mountidx.hit"]; got != 2 {
		t.Fatalf("mountidx.hit = %d, want 2", got)
	}
}

func TestMountIndexTracksRuleMutations(t *testing.T) {
	m := idxModule()
	alice := idxTask{uid: 1000}
	req := mountReq("/dev/sdc1", "/mnt/extra", "ext4")
	if d, _ := m.MountCheck(alice, req); d != lsm.NoOpinion {
		t.Fatalf("before add: %v", d)
	}
	m.AddMountRule(MountRule{Device: "/dev/sdc1", MountPoint: "/mnt/extra", FSType: "ext4"})
	if d, _ := m.MountCheck(alice, req); d != lsm.Grant {
		t.Fatalf("after add: %v", d)
	}
	m.RemoveMountRules("/dev/sdc1", "/mnt/extra")
	if d, _ := m.MountCheck(alice, req); d != lsm.NoOpinion {
		t.Fatalf("after remove: %v", d)
	}
}

func TestUmountUsersIndex(t *testing.T) {
	m := idxModule()
	bob := idxTask{uid: 1001}
	// "users" mount point: anyone may unmount.
	d, _ := m.UmountCheck(bob, &lsm.UmountRequest{
		Point: "/media/usb", Device: "/dev/sdb1", MountedBy: 1000, UserMount: true,
	})
	if d != lsm.Grant {
		t.Fatalf("users umount by other uid: %v", d)
	}
	// "user" mount point: only the mounting uid.
	d, _ = m.UmountCheck(bob, &lsm.UmountRequest{
		Point: "/cdrom", Device: "/dev/cdrom", MountedBy: 1000, UserMount: true,
	})
	if d != lsm.NoOpinion {
		t.Fatalf("user umount by other uid: %v", d)
	}
	// The mounting uid always may.
	d, _ = m.UmountCheck(idxTask{uid: 1000}, &lsm.UmountRequest{
		Point: "/cdrom", Device: "/dev/cdrom", MountedBy: 1000, UserMount: true,
	})
	if d != lsm.Grant {
		t.Fatalf("user umount by owner: %v", d)
	}
}

// TestStatsSnapshotReadsCells: each StatsSnapshot field reads its own
// policy-outcome cell on the module's tracer.
func TestStatsSnapshotReadsCells(t *testing.T) {
	m := idxModule()
	cells := []trace.Cell{trace.MountGrant, trace.MountDenial, trace.BindGrant, trace.BindDenial,
		trace.SetuidGrant, trace.SetuidDefer, trace.SetuidDenial, trace.RawSockGrant,
		trace.RouteGrant, trace.RouteDenial, trace.FileGrant, trace.FileDenial}
	for i, c := range cells {
		for n := 0; n <= i; n++ {
			m.k.Trace.Count(c)
		}
	}
	want := StatsSnapshot{
		MountGrants: 1, MountDenials: 2, BindGrants: 3, BindDenials: 4,
		SetuidGrants: 5, SetuidDefers: 6, SetuidDenials: 7, RawSockGrants: 8,
		RouteGrants: 9, RouteDenials: 10, FileGrants: 11, FileDenials: 12,
	}
	if got := m.Stats.Snapshot(); got != want {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
}
