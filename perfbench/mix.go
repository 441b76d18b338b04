package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/lsm"
	"protego/internal/netstack"
	"protego/internal/trace"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// syscall_mix: Table-5 system calls issued directly on each machine's
// kernel, as root and as alice, in seeded rounds that run the same ops on
// the baseline and on Protego, alternating which image goes first.

// Call indexes into mixCalls.
const (
	callGetpid = iota
	callRead
	callWrite
	callStat
	callOpenClose
	callSigaction
	callStatMissing
	callForkExit
	callSpawn
	callCreateUnlink
	callMountUmount
	callSetuid
	callSetgid
	callIoctl
	callBind
	callSocketRaw
)

// mixOp is one generated call: which call, whether alice (rather than
// root) issues it, and an argument selector (the policy variant of mount
// and bind, the path of the others).
type mixOp struct {
	call uint8
	user bool
	arg  uint16
}

// Every call has the same share of the sequence. The repo has no
// measured syscall distribution that covers these calls, so the mix does
// not pretend to follow one: like Table 5, which lists each call as one
// row, it weighs every call the same, and pairs_per_s on syscall_mix is
// the inverse of the unweighted mean call time. mixCopies is a multiple of 2 x 4 x 3, so both callers get the
// same count of every mount variant (one in four not whitelisted) and
// every bind port, and the whole sequence is a whole number of rounds.
const (
	mixCopies = 768  // copies of each call in the sequence
	mixRound  = 512  // ops per image per round
	mixNames  = 8192 // distinct cold-path file names
)

// mixPaths are the hot paths stat resolves (dcache hits after the first).
var mixPaths = []string{"/etc/motd", "/bin/ls", "/etc/passwd", "/usr/bin/passwd", "/home", "/var/spool/lpd/queue"}

// genMix generates the seeded call sequence, replayed cyclically. Its
// contents are the same for every seed: each call appears mixCopies
// times, half of them as alice, with its policy variants in fixed
// shares. The seed picks the paths and the order, so a run's cost
// does not depend on which calls a seed happened to draw.
func genMix(seed int64) []mixOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []mixOp
	for c := range mixCalls {
		for j := 0; j < mixCopies; j++ {
			op := mixOp{call: uint8(c), user: j%2 == 1, arg: uint16(rng.Intn(1 << 16))}
			if c == callMountUmount || c == callBind {
				op.arg = uint16(j / 2)
			}
			ops = append(ops, op)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// mixVariant names the oracle row of an op: calls whose argument selects
// a different policy path carry a suffix.
func mixVariant(op mixOp) string {
	switch op.call {
	case callMountUmount:
		if op.arg%4 == 3 {
			return "mount_umount.not_whitelisted"
		}
	case callBind:
		return [...]string{"bind.512", "bind.80", "bind.2048"}[op.arg%3]
	}
	return mixCalls[op.call]
}

// mixOracle is the expected errno of each call variant by image and
// caller: {linux root, linux alice, protego root, protego alice}; 0 is
// success. A denial the policy prescribes is a pass.
var mixOracle = map[string][4]errno.Errno{
	"getpid":        {},
	"read":          {},
	"write":         {},
	"stat":          {},
	"open_close":    {},
	"sigaction":     {},
	"stat_missing":  {errno.ENOENT, errno.ENOENT, errno.ENOENT, errno.ENOENT},
	"fork_exit":     {},
	"spawn":         {},
	"create_unlink": {},
	// /dev/cdrom on /cdrom is a "user" row of /etc/fstab: only Protego's
	// in-kernel whitelist lets alice mount it without the setuid helper.
	"mount_umount": {0, errno.EPERM, 0, 0},
	// /dev/sdc1 on /mnt/backup has no "user" option.
	"mount_umount.not_whitelisted": {0, errno.EPERM, 0, errno.EPERM},
	// alice -> bob: no delegation rule, and no terminal for su's password.
	"setuid": {0, errno.EPERM, 0, errno.EPERM},
	// alice -> shadow: not a member and no password-protected group.
	"setgid": {0, errno.EPERM, 0, errno.EPERM},
	// Video mode setting: Protego grants it to anyone (KMS, §4.5).
	"ioctl": {0, errno.EPERM, 0, 0},
	// Port 512 is privileged and unallocated: base policy on both.
	"bind.512": {0, errno.EACCES, 0, errno.EACCES},
	// Port 80 is allocated to httpd as www-data in /etc/bind: on Protego
	// not even root may take it.
	"bind.80":   {0, errno.EACCES, errno.EACCES, errno.EACCES},
	"bind.2048": {},
	// Unprivileged raw ICMP sockets are a Protego grant (§4.1.1).
	"socket_raw": {0, errno.EPERM, 0, 0},
}

func mixExpected(img int, op mixOp) errno.Errno {
	row := mixOracle[mixVariant(op)]
	i := img * 2
	if op.user {
		i++
	}
	return row[i]
}

// errnoOf is errno.Of without the allocation errors.As makes for a bare
// Errno; -1 marks an error that carries no errno.
func errnoOf(err error) errno.Errno {
	if err == nil {
		return 0
	}
	if e, ok := err.(errno.Errno); ok {
		return e
	}
	var e errno.Errno
	if errors.As(err, &e) {
		return e
	}
	return -1
}

// mixSession is one caller on one image with its pre-opened descriptors.
type mixSession struct {
	t         *kernel.Task
	readFD    int
	writeFD   int
	writePath string
}

type mixFixture struct {
	pair     *imagePair
	sess     [2][2]mixSession // [image][alice?]
	ops      []mixOp
	names    []string // cold-path create/unlink names
	missing  []string // cold-path missing names
	spanName [2][]string
	cursor   int
	rounds   int
	handler  func(int)
	writeBuf []byte
}

func setupMix(seed int64) (fixture, error) {
	pair, err := buildPair()
	if err != nil {
		return nil, err
	}
	f := &mixFixture{pair: pair, ops: genMix(seed), handler: func(int) {}, writeBuf: []byte{'x'}}
	for i := 0; i < mixNames; i++ {
		f.names = append(f.names, fmt.Sprintf("/tmp/mix-%d-%d", seed, i))
		f.missing = append(f.missing, fmt.Sprintf("/tmp/absent-%d-%d", seed, i))
	}
	for img, m := range pair.m {
		for u, user := range []string{"root", "alice"} {
			t, err := m.Session(user)
			if err != nil {
				return nil, err
			}
			rfd, err := m.K.Open(t, "/etc/motd", kernel.O_RDONLY)
			if err != nil {
				return nil, fmt.Errorf("open read fd: %w", err)
			}
			path := "/tmp/mix-write-" + user
			wfd, err := m.K.Open(t, path, kernel.O_WRONLY|kernel.O_CREAT)
			if err != nil {
				return nil, fmt.Errorf("open write fd: %w", err)
			}
			f.sess[img][u] = mixSession{t: t, readFD: rfd, writeFD: wfd, writePath: path}
		}
		for _, c := range mixCalls {
			f.spanName[img] = append(f.spanName[img], armNames[img]+".kernel."+c)
		}
	}
	return f, nil
}

// exec issues one op on one image and returns its outcome.
func (f *mixFixture) exec(img int, op mixOp) error {
	k := f.pair.m[img].K
	s := &f.sess[img][0]
	if op.user {
		s = &f.sess[img][1]
	}
	t := s.t
	switch op.call {
	case callGetpid:
		k.Getpid(t)
		return nil
	case callRead:
		_, err := k.Read(t, s.readFD, 1)
		return err
	case callWrite:
		_, err := k.Write(t, s.writeFD, f.writeBuf)
		return err
	case callStat:
		_, err := k.Stat(t, mixPaths[int(op.arg)%len(mixPaths)])
		return err
	case callOpenClose:
		fd, err := k.Open(t, "/etc/motd", kernel.O_RDONLY)
		if err != nil {
			return err
		}
		return k.CloseFD(t, fd)
	case callSigaction:
		return k.SigAction(t, 10, f.handler)
	case callStatMissing:
		_, err := k.Stat(t, f.missing[int(op.arg)%mixNames])
		return err
	case callForkExit:
		k.Exit(k.Fork(t), 0)
		return nil
	case callSpawn:
		res, err := k.Spawn(t, userspace.BinSh, []string{userspace.BinSh}, nil, kernel.SpawnOpts{})
		if err == nil && res.Code != 0 {
			return fmt.Errorf("sh exited %d", res.Code)
		}
		return err
	case callCreateUnlink:
		name := f.names[int(op.arg)%mixNames]
		if err := k.WriteFile(t, name, nil); err != nil {
			return err
		}
		return k.Unlink(t, name)
	case callMountUmount:
		dev, point, fstype, opts := "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"}
		if op.arg%4 == 3 {
			dev, point, fstype, opts = "/dev/sdc1", "/mnt/backup", "ext4", nil
		}
		if err := k.Mount(t, dev, point, fstype, opts); err != nil {
			return err
		}
		return k.Umount(t, point)
	case callSetuid:
		if op.user {
			return k.Setuid(t, world.UIDBob)
		}
		return k.Setuid(t, world.UIDRoot)
	case callSetgid:
		if op.user {
			return k.Setgid(t, world.GIDShadow)
		}
		return k.Setgid(t, world.GIDRoot)
	case callIoctl:
		return k.Ioctl(t, userspace.VideoDevice, kernel.VIDIOCSMODE, "800x600")
	case callBind:
		sock, err := k.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
		if err != nil {
			return err
		}
		berr := k.Bind(t, sock, [...]int{512, 80, 2048}[op.arg%3])
		if err := k.CloseSocket(t, sock); err != nil {
			return err
		}
		return berr
	case callSocketRaw:
		sock, err := k.Socket(t, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP)
		if err != nil {
			return err
		}
		return k.CloseSocket(t, sock)
	}
	return fmt.Errorf("unknown call %d", op.call)
}

func (f *mixFixture) round(mt *meter) error {
	if err := f.truncateWrites(); err != nil {
		return err
	}
	ops := f.ops[f.cursor : f.cursor+mixRound]
	f.cursor = (f.cursor + mixRound) % len(f.ops)
	var arm [2]time.Duration
	first := f.rounds % 2
	f.rounds++
	for k := 0; k < 2; k++ {
		img := first ^ k
		for _, op := range ops {
			mt.nextOp()
			sid := mt.rec.begin("kernel", f.spanName[img][op.call])
			t0 := time.Now()
			err := f.exec(img, op)
			d := time.Since(t0)
			mt.rec.end(sid)
			arm[img] += d
			mt.armOp(img, d)
			if want := mixExpected(img, op); !mt.outcome(errnoOf(err) == want) {
				mt.mismatchf("%s %s user=%v: got %v, want %v", armNames[img], mixVariant(op), op.user, err, want)
			}
		}
	}
	mt.pairedRound(len(ops), arm)
	return nil
}

// truncateWrites reopens the write call's files truncated, outside the
// timed ops, so they stay small however many rounds a run fits and the
// heap a run retains does not grow with its speed.
func (f *mixFixture) truncateWrites() error {
	for img, m := range f.pair.m {
		for u := range f.sess[img] {
			s := &f.sess[img][u]
			if err := m.K.CloseFD(s.t, s.writeFD); err != nil {
				return err
			}
			fd, err := m.K.Open(s.t, s.writePath, kernel.O_WRONLY|kernel.O_TRUNC)
			if err != nil {
				return fmt.Errorf("reopen %s: %w", s.writePath, err)
			}
			s.writeFD = fd
		}
	}
	return nil
}

func (f *mixFixture) counters() map[string]uint64 { return f.pair.counters() }

// probeIters is how many times each direct layer probe runs.
const probeIters = 2000

func (f *mixFixture) probe(rec *recorder, pl *layerReport) error {
	pl.set("world.build.ms", f.pair.buildMs())
	pl.set("kernel.allocs_per_call", ratio(float64(pl.plain.rt1.allocs-pl.plain.rt0.allocs), float64(pl.plain.ops()+pl.traced.ops())))

	// vfs: the FS resolution of the mix's paths with no kernel entry, LSM
	// or tracing around it.
	for _, m := range f.pair.m {
		fs := m.K.FS
		i := 0
		if err := timeN(rec, "vfs", "vfs.lookup", probeIters, func() error {
			i++
			_, err := fs.Lookup(vfs.RootCred, mixPaths[i%len(mixPaths)])
			return err
		}); err != nil {
			return err
		}
	}

	// lsm: the full chain per image; core: the Protego module alone. Both
	// as alice: core's mount hooks return early for CAP_SYS_ADMIN, so a
	// root caller never reaches the whitelist.
	for img, m := range f.pair.m {
		alice := f.sess[img][1].t
		for _, h := range lsmProbes(alice, m.K.LSM) {
			if err := timeN(rec, "lsm", armNames[img]+".lsm."+h.name, probeIters, h.fn); err != nil {
				return err
			}
		}
	}
	pro := f.pair.m[protegoArm]
	for _, h := range lsmProbes(f.sess[protegoArm][1].t, pro.Protego) {
		if err := timeN(rec, "core", "core."+h.name, probeIters, h.fn); err != nil {
			return err
		}
	}
	lin := f.pair.m[linuxArm]
	open := &lsm.OpenRequest{Path: "/etc/motd", OwnerUID: 0, Mode: 0o644, DACAllowed: true}
	if err := timeN(rec, "apparmor", "apparmor.file_open", probeIters, func() error {
		_, err := lin.AppArmor.FileOpen(f.sess[linuxArm][1].t, open)
		return err
	}); err != nil {
		return err
	}

	// trace: one event into a private tracer, so the machines' counters
	// stay untouched.
	tr := trace.New(0)
	return timeN(rec, "trace", "trace.emit", probeIters, func() error {
		tr.Emit(trace.Event{Kind: trace.KindAudit, Msg: "perfbench"})
		return nil
	})
}

// hookProbe is one LSM hook call with the mix's arguments.
type hookProbe struct {
	name string
	fn   func() error
}

// lsmProbes returns a call of every timed hook on mod for task t. The
// decisions are not checked here: syscall_mix's oracle checks the same
// hooks' outcomes through the kernel.
func lsmProbes(t lsm.Task, mod lsm.Module) []hookProbe {
	mount := &lsm.MountRequest{Device: "/dev/cdrom", Point: "/cdrom", FSType: "iso9660", Options: []string{"ro"}, ReadOnly: true}
	umount := &lsm.UmountRequest{Point: "/cdrom", Device: "/dev/cdrom", MountedBy: world.UIDAlice, UserMount: true}
	bind := &lsm.BindRequest{Family: netstack.AF_INET, Type: netstack.SOCK_STREAM, Proto: netstack.IPPROTO_TCP, Port: 80}
	ioctl := &lsm.IoctlRequest{Path: userspace.VideoDevice, Cmd: kernel.VIDIOCSMODE, Arg: "800x600"}
	open := &lsm.OpenRequest{Path: "/etc/motd", OwnerUID: 0, Mode: 0o644, DACAllowed: true}
	ignore := func(lsm.Decision, error) error { return nil }
	return []hookProbe{
		{"mount", func() error { return ignore(mod.MountCheck(t, mount)) }},
		{"umount", func() error { return ignore(mod.UmountCheck(t, umount)) }},
		{"socket_create", func() error {
			req := lsm.SocketRequest{Family: netstack.AF_INET, Type: netstack.SOCK_RAW, Proto: netstack.IPPROTO_ICMP}
			return ignore(mod.SocketCreate(t, &req))
		}},
		{"bind", func() error { return ignore(mod.BindCheck(t, bind)) }},
		{"ioctl", func() error { return ignore(mod.IoctlCheck(t, ioctl)) }},
		{"setuid", func() error { return ignore(mod.SetuidCheck(t, world.UIDBob)) }},
		{"setgid", func() error { return ignore(mod.SetgidCheck(t, world.GIDShadow)) }},
		{"file_open", func() error { return ignore(mod.FileOpen(t, open)) }},
	}
}
