package core

import (
	"fmt"
	"sort"
	"strconv"

	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/netstack"
	"protego/internal/policy"
	"protego/internal/trace"
)

type bindKey struct {
	proto int // IPPROTO_TCP or IPPROTO_UDP
	port  int
}

// BindTarget is the single application instance a privileged port is
// allocated to: a (binary path, uid) pair (§4.1.3).
type BindTarget struct {
	Binary string
	UID    int
}

// SetBindTable replaces the privileged-port allocation table.
func (m *Module) SetBindTable(entries []policy.BindEntry, resolveUID func(user string) (int, bool)) error {
	table := make(map[bindKey]BindTarget, len(entries))
	for i := range entries {
		e := &entries[i]
		proto := netstack.IPPROTO_TCP
		if e.Proto == "udp" {
			proto = netstack.IPPROTO_UDP
		}
		uid, ok := resolveUID(e.User)
		if !ok {
			return fmt.Errorf("bind table: unknown user %q", e.User)
		}
		table[bindKey{proto: proto, port: e.Port}] = BindTarget{Binary: e.Binary, UID: uid}
	}
	m.mu.Lock()
	m.bindTable = table
	m.mu.Unlock()
	return nil
}

// AddBindAllocation installs one allocation directly (the /proc path).
func (m *Module) AddBindAllocation(proto, port int, binary string, uid int) {
	m.mu.Lock()
	m.bindTable[bindKey{proto: proto, port: port}] = BindTarget{Binary: binary, UID: uid}
	m.mu.Unlock()
}

// BindAllocations renders the table sorted by port for /proc reads.
func (m *Module) BindAllocations() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var lines []string
	for k, v := range m.bindTable {
		proto := "tcp"
		if k.proto == netstack.IPPROTO_UDP {
			proto = "udp"
		}
		lines = append(lines, fmt.Sprintf("%d %s %s %d", k.port, proto, v.Binary, v.UID))
	}
	sort.Strings(lines)
	return lines
}

// BindCheck enforces the allocation: if a privileged port is allocated, only
// the matching (binary, uid) instance may bind it — even a privileged
// caller may not hijack another service's port (closing the "malicious web
// server also acts as a mail server" hole). Unallocated ports fall back to
// base policy (CAP_NET_BIND_SERVICE).
func (m *Module) BindCheck(t lsm.Task, req *lsm.BindRequest) (lsm.Decision, error) {
	proto := req.Proto
	if proto == 0 || proto == netstack.IPPROTO_IP {
		if req.Type == netstack.SOCK_STREAM {
			proto = netstack.IPPROTO_TCP
		} else {
			proto = netstack.IPPROTO_UDP
		}
	}
	m.mu.RLock()
	target, allocated := m.bindTable[bindKey{proto: proto, port: req.Port}]
	m.mu.RUnlock()
	if !allocated {
		return lsm.NoOpinion, nil
	}
	if target.Binary == t.BinaryPath() && target.UID == t.EUID() {
		m.k.Trace.Count(trace.BindGrant)
		return lsm.Grant, nil
	}
	m.k.Trace.Count(trace.BindDenial)
	return lsm.Deny, errno.EACCES
}

// parseBindArgs parses the /proc grammar fields:
//
//	add <port> <tcp|udp> <binary> <uid>
func parseBindArgs(args []string) (bindKey, BindTarget, error) {
	if len(args) != 4 {
		return bindKey{}, BindTarget{}, errno.EINVAL
	}
	port, err := strconv.Atoi(args[0])
	if err != nil || port <= 0 || port >= 1024 {
		return bindKey{}, BindTarget{}, errno.EINVAL
	}
	var proto int
	switch args[1] {
	case "tcp":
		proto = netstack.IPPROTO_TCP
	case "udp":
		proto = netstack.IPPROTO_UDP
	default:
		return bindKey{}, BindTarget{}, errno.EINVAL
	}
	uid, err := strconv.Atoi(args[3])
	if err != nil || uid < 0 {
		return bindKey{}, BindTarget{}, errno.EINVAL
	}
	return bindKey{proto: proto, port: port}, BindTarget{Binary: args[2], UID: uid}, nil
}
