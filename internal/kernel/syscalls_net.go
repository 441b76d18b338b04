package kernel

import (
	"time"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/netstack"
)

// Socket implements socket(2). Base policy: raw and packet sockets require
// CAP_NET_RAW (which is why ping is setuid root on the baseline). On
// Protego the LSM grants unprivileged raw sockets, tagging them so the
// netfilter extension filters their outgoing packets (§4.1.1).
func (k *Kernel) Socket(t *Task, family, typ, proto int) (*netstack.Socket, error) {
	return sysCall(k, t, SysSocket, nil, func() (*netstack.Socket, error) {
		raw := typ == netstack.SOCK_RAW || family == netstack.AF_PACKET
		req := &lsm.SocketRequest{Family: family, Type: typ, Proto: proto}
		dec, err := k.LSM.SocketCreate(t, req)
		if dec == lsm.Deny {
			k.Auditf("socket denied by lsm: pid=%d uid=%d type=%d", t.PID(), t.UID(), typ)
			return nil, denyErr(err, errno.EPERM)
		}
		// Namespace-local privilege: inside a private network namespace the
		// creator holds CAP_NET_RAW over the fake network (§6) — externally
		// invisible, so no policy is needed.
		privileged := t.Capable(caps.CAP_NET_RAW) || k.nsPrivileged(t)
		if raw && !privileged && dec != lsm.Grant {
			k.Auditf("socket denied: pid=%d uid=%d raw socket without CAP_NET_RAW", t.PID(), t.UID())
			return nil, errno.EPERM
		}
		sock, serr := k.stackFor(t).NewSocket(family, typ, proto)
		if serr != nil {
			return nil, serr
		}
		sock.OwnerUID = t.EUID()
		sock.OwnerBinary = t.BinaryPath()
		if raw && !t.Capable(caps.CAP_NET_RAW) && !k.nsPrivileged(t) {
			// Granted by the LSM: subject this socket's output to the
			// raw-socket netfilter rules.
			sock.UnprivRaw = true
		}
		return sock, nil
	})
}

// Bind implements bind(2). Base policy: ports below 1024 require
// CAP_NET_BIND_SERVICE. On Protego the LSM consults the /etc/bind port
// allocation table mapping each privileged port to one (binary, uid)
// application instance (§4.1.3).
func (k *Kernel) Bind(t *Task, sock *netstack.Socket, port int) error {
	return sysCallErr(k, t, SysBind, func() error {
		if port > 0 && port < 1024 {
			req := &lsm.BindRequest{
				Family: sock.Family,
				Type:   sock.Type,
				Proto:  sock.Proto,
				Port:   port,
			}
			dec, err := k.LSM.BindCheck(t, req)
			if dec == lsm.Deny {
				k.Auditf("bind denied by lsm: pid=%d uid=%d port=%d bin=%s", t.PID(), t.UID(), port, t.BinaryPath())
				return denyErr(err, errno.EACCES)
			}
			if !t.Capable(caps.CAP_NET_BIND_SERVICE) && dec != lsm.Grant {
				k.Auditf("bind denied: pid=%d uid=%d port=%d (no CAP_NET_BIND_SERVICE)", t.PID(), t.UID(), port)
				return errno.EACCES
			}
		}
		return sock.Stack().Bind(sock, port)
	})
}

// Listen implements listen(2).
func (k *Kernel) Listen(t *Task, sock *netstack.Socket, backlog int) error {
	return sysCallErr(k, t, SysListen, func() error {
		return sock.Stack().Listen(sock, backlog)
	})
}

// Accept implements accept(2) with a timeout (the simulation has no
// blocking-forever semantics).
func (k *Kernel) Accept(t *Task, sock *netstack.Socket, timeout time.Duration) (*netstack.Socket, error) {
	return sysCall(k, t, SysAccept, nil, func() (*netstack.Socket, error) {
		return sock.Stack().Accept(sock, timeout)
	})
}

// Connect implements connect(2).
func (k *Kernel) Connect(t *Task, sock *netstack.Socket, dst netstack.IP, port int) error {
	return sysCallErr(k, t, SysConnect, func() error {
		return sock.Stack().Connect(sock, dst, port)
	})
}

// Send implements send(2) on a connected stream socket.
func (k *Kernel) Send(t *Task, sock *netstack.Socket, data []byte) (int, error) {
	return sysCall(k, t, SysSend, 0, func() (int, error) {
		return sock.Stack().Send(sock, data)
	})
}

// Recv implements recv(2).
func (k *Kernel) Recv(t *Task, sock *netstack.Socket, timeout time.Duration) ([]byte, error) {
	return sysCall(k, t, SysRecv, nil, func() ([]byte, error) {
		return sock.Stack().Recv(sock, timeout)
	})
}

// SendTo implements sendto(2) for datagram and raw sockets. Raw packets
// pass the netfilter OUTPUT chain inside the stack.
func (k *Kernel) SendTo(t *Task, sock *netstack.Socket, pkt *netstack.Packet) error {
	return sysCallErr(k, t, SysSendTo, func() error {
		return sock.Stack().SendTo(sock, pkt)
	})
}

// RecvFrom implements recvfrom(2).
func (k *Kernel) RecvFrom(t *Task, sock *netstack.Socket, timeout time.Duration) (*netstack.Packet, error) {
	return sysCall(k, t, SysRecvFrom, nil, func() (*netstack.Packet, error) {
		return sock.Stack().RecvFrom(sock, timeout)
	})
}

// CloseSocket releases the socket.
func (k *Kernel) CloseSocket(t *Task, sock *netstack.Socket) error {
	return sysCallErr(k, t, SysCloseSock, func() error {
		return sock.Stack().Close(sock)
	})
}

// Route ioctl commands (SIOCADDRT/SIOCDELRT equivalents).
const (
	SIOCADDRT uint32 = 0x890B
	SIOCDELRT uint32 = 0x890C
)

// AddRoute mediates routing table updates. Base policy: CAP_NET_ADMIN. On
// Protego the LSM grants route additions by unprivileged pppd sessions when
// the new route does not conflict with existing routes (§4.1.2).
func (k *Kernel) AddRoute(t *Task, r netstack.Route) error {
	return sysCallErr(k, t, SysAddRoute, func() error {
		// Routes inside a private network namespace affect nobody else: the
		// namespace creator manages them freely (§6).
		if ns := k.netNSOf(t); ns != nil {
			if ns.owner != t.UID() && !t.Capable(caps.CAP_NET_ADMIN) {
				return errno.EPERM
			}
			r.CreatedBy = t.UID()
			ns.stack.AddRoute(r)
			return nil
		}
		req := &lsm.IoctlRequest{Path: "route", Cmd: SIOCADDRT, Arg: r}
		dec, err := k.LSM.IoctlCheck(t, req)
		if dec == lsm.Deny {
			k.Auditf("route add denied by lsm: pid=%d uid=%d route=%s", t.PID(), t.UID(), r)
			return denyErr(err, errno.EPERM)
		}
		if !t.Capable(caps.CAP_NET_ADMIN) && dec != lsm.Grant {
			k.Auditf("route add denied: pid=%d uid=%d route=%s", t.PID(), t.UID(), r)
			return errno.EPERM
		}
		r.CreatedBy = t.UID()
		k.Net.AddRoute(r)
		return nil
	})
}

// DelRoute mediates route removal: CAP_NET_ADMIN, or an LSM grant limited
// to routes the same user created.
func (k *Kernel) DelRoute(t *Task, dest netstack.IP, prefixLen int) error {
	return sysCallErr(k, t, SysDelRoute, func() error {
		if ns := k.netNSOf(t); ns != nil {
			if ns.owner != t.UID() && !t.Capable(caps.CAP_NET_ADMIN) {
				return errno.EPERM
			}
			if !ns.stack.DelRoute(dest, prefixLen) {
				return errno.ESRCH
			}
			return nil
		}
		req := &lsm.IoctlRequest{Path: "route", Cmd: SIOCDELRT, Arg: netstack.Route{Dest: dest, PrefixLen: prefixLen}}
		dec, err := k.LSM.IoctlCheck(t, req)
		if dec == lsm.Deny {
			return denyErr(err, errno.EPERM)
		}
		if !t.Capable(caps.CAP_NET_ADMIN) && dec != lsm.Grant {
			return errno.EPERM
		}
		if !k.Net.DelRoute(dest, prefixLen) {
			return errno.ESRCH
		}
		return nil
	})
}
