package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/policy"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// utility_flows: the paper's Figure-1 user operations run through the
// real utilities with m.Run, the same flows on both images in rounds that
// alternate which image goes first.

// Flow indexes into flowUtilities.
const (
	flowMount = iota
	flowUmount
	flowSudo
	flowPing
	flowPasswd
)

// flowCopies is how many times each flow unit appears in the generated
// sequence.
const (
	flowCopies = 820
	flowRound  = 8 // flows per image per round
)

// alicePasswords are the two passwords passwd alternates between.
var alicePasswords = [2]string{world.AlicePassword, "alice-second-pw"}

// genFlows generates the seeded flow sequence, replayed cyclically. Its
// contents are the same for every seed: flowCopies each of mount+umount,
// sudo, ping and passwd; the seed picks the order. A mount is always
// followed by its umount, so any whole number of passes leaves /cdrom
// unmounted.
func genFlows(seed int64) []uint8 {
	units := [][]uint8{{flowMount, flowUmount}, {flowSudo}, {flowPing}, {flowPasswd}}
	deck := make([]int, 0, len(units)*flowCopies)
	for u := range units {
		for i := 0; i < flowCopies; i++ {
			deck = append(deck, u)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	var out []uint8
	for _, u := range deck {
		out = append(out, units[u]...)
	}
	return out
}

type flowFixture struct {
	pair     *imagePair
	alice    [2]*kernel.Task
	charlie  [2]*kernel.Task
	pwIdx    [2]int // index into alicePasswords of alice's current password
	flows    []uint8
	cursor   int
	rounds   int
	spanName [2][]string
}

func setupFlows(seed int64) (fixture, error) {
	pair, err := buildPair()
	if err != nil {
		return nil, err
	}
	f := &flowFixture{pair: pair, flows: genFlows(seed)}
	for i, m := range pair.m {
		if f.alice[i], err = m.Session("alice"); err != nil {
			return nil, err
		}
		if f.charlie[i], err = m.Session("charlie"); err != nil {
			return nil, err
		}
		for _, u := range flowUtilities {
			f.spanName[i] = append(f.spanName[i], armNames[i]+".userspace."+u)
		}
	}
	return f, nil
}

// exec runs one flow on one image and checks its exit code and
// postcondition; the returned duration covers the flow only.
func (f *flowFixture) exec(img int, flow uint8, rec *recorder) (time.Duration, error) {
	m := f.pair.m[img]
	var code int
	var out, errOut string
	var err error
	sid := rec.begin("userspace", f.spanName[img][flow])
	t0 := time.Now()
	switch flow {
	case flowMount:
		code, out, errOut, err = m.Run(f.alice[img], []string{userspace.BinMount, "/dev/cdrom", "/cdrom"}, nil)
	case flowUmount:
		code, out, errOut, err = m.Run(f.alice[img], []string{userspace.BinUmount, "/cdrom"}, nil)
	case flowSudo:
		code, out, errOut, err = m.Run(f.charlie[img], []string{userspace.BinSudo, "/bin/ls", "/root"}, nil)
	case flowPing:
		code, out, errOut, err = m.Run(f.alice[img], []string{userspace.BinPing, "-c", "1", "10.0.0.2"}, nil)
	case flowPasswd:
		cur, next := alicePasswords[f.pwIdx[img]], alicePasswords[1-f.pwIdx[img]]
		code, out, errOut, err = m.Run(f.alice[img], []string{userspace.BinPasswd}, func(prompt string) string {
			if strings.Contains(prompt, "New password") {
				return next
			}
			return cur
		})
	}
	rec.end(sid)
	if flow == flowPasswd && err == nil && code == 0 && m.Monitor != nil {
		// Protego: the monitoring daemon folds the changed fragment back
		// into the legacy files before the change is visible everywhere.
		sid := rec.begin("monitord", "monitord.sync_accounts")
		err = m.Monitor.SyncAccountsFromFragments()
		rec.end(sid)
	}
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if code != 0 {
		return d, fmt.Errorf("exit %d: %q %q", code, out, errOut)
	}
	return d, f.postcondition(img, flow, out)
}

// postcondition checks a flow's effect on the machine.
func (f *flowFixture) postcondition(img int, flow uint8, out string) error {
	m := f.pair.m[img]
	switch flow {
	case flowMount:
		if m.K.FS.MountAt("/cdrom") == nil {
			return fmt.Errorf("mount: /cdrom not mounted")
		}
	case flowUmount:
		if m.K.FS.MountAt("/cdrom") != nil {
			return fmt.Errorf("umount: /cdrom still mounted")
		}
	case flowSudo:
		if c := f.charlie[img]; c.UID() != world.UIDCharlie || c.EUID() != world.UIDCharlie {
			return fmt.Errorf("sudo: caller credentials changed to uid=%d euid=%d", c.UID(), c.EUID())
		}
	case flowPing:
		if !strings.Contains(out, "1 packets transmitted, 1 received") {
			return fmt.Errorf("ping: %q", out)
		}
	case flowPasswd:
		next := 1 - f.pwIdx[img]
		if !m.Auth.VerifyPassword("alice", alicePasswords[next]) {
			return fmt.Errorf("passwd: new password does not verify")
		}
		f.pwIdx[img] = next
	}
	return nil
}

func (f *flowFixture) round(mt *meter) error {
	flows := make([]uint8, 0, flowRound)
	for len(flows) < flowRound {
		flows = append(flows, f.flows[f.cursor])
		f.cursor = (f.cursor + 1) % len(f.flows)
	}
	var arm [2]time.Duration
	first := f.rounds % 2
	f.rounds++
	for k := 0; k < 2; k++ {
		img := first ^ k
		for _, flow := range flows {
			mt.nextOp()
			d, err := f.exec(img, flow, mt.rec)
			arm[img] += d
			mt.armOp(img, d)
			if !mt.outcome(err == nil) {
				mt.mismatchf("%s %s: %v", armNames[img], flowUtilities[flow], err)
			}
		}
	}
	mt.pairedRound(len(flows), arm)
	return nil
}

func (f *flowFixture) counters() map[string]uint64 { return f.pair.counters() }

func (f *flowFixture) probe(rec *recorder, pl *layerReport) error {
	pl.set("world.build.ms", f.pair.buildMs())
	for i, img := range armNames {
		pl.set(img+".kernel.syscalls_per_flow", ratio(pl.delta(img+".syscalls"), float64(pl.plain.armLat[i].n+pl.traced.armLat[i].n)))
	}
	pro := f.pair.m[protegoArm]

	// netfilter: ping's echo request from an unprivileged raw socket,
	// against Protego's OUTPUT rules.
	host := pro.K.Net.HostIP()
	if err := timeN(rec, "netfilter", "netfilter.output", probeIters, func() error {
		pkt := netstack.Packet{Src: host, Dst: host, Proto: netstack.IPPROTO_ICMP,
			ICMPType: netstack.ICMPEchoRequest, TTL: 64, FromRaw: true, UnprivRaw: true, SenderUID: world.UIDAlice}
		if v := pro.K.Filter.Output(&pkt); v != netstack.Accept {
			return fmt.Errorf("echo request verdict %v", v)
		}
		return nil
	}); err != nil {
		return err
	}

	pw := alicePasswords[f.pwIdx[protegoArm]]
	if err := timeN(rec, "authsvc", "authsvc.verify_password", probeIters/4, func() error {
		if !pro.Auth.VerifyPassword("alice", pw) {
			return fmt.Errorf("current password rejected")
		}
		return nil
	}); err != nil {
		return err
	}
	if err := timeN(rec, "accountdb", "accountdb.shadow_hash", probeIters, func() error {
		_, err := pro.DB.ShadowHash("alice")
		return err
	}); err != nil {
		return err
	}
	sudoers := pro.Protego.Sudoers()
	groups := []string{"wheel", "users"}
	if err := timeN(rec, "policy", "policy.sudoers_lookup", probeIters, func() error {
		if _, ok := sudoers.LookupCommand("charlie", groups, "root", "/bin/ls"); !ok {
			return fmt.Errorf("charlie may not run /bin/ls")
		}
		return nil
	}); err != nil {
		return err
	}
	fstab, err := pro.K.FS.ReadFile(vfs.RootCred, "/etc/fstab")
	if err != nil {
		return err
	}
	return timeN(rec, "policy", "policy.parse_fstab", probeIters, func() error {
		_, err := policy.ParseFstab(string(fstab))
		return err
	})
}
