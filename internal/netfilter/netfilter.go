// Package netfilter implements the packet-filtering framework the Protego
// prototype extends (≈100 lines of netfilter changes + a 175-line iptables
// extension in the paper). Rules on the OUTPUT chain mediate packets sent
// through raw and packet sockets: Protego lets any user *create* a raw
// socket, but outgoing packets are subject to these rules, so a compromised
// network utility can no longer spoof traffic from other applications'
// sockets (§4.1.1).
package netfilter

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"protego/internal/errno"
	"protego/internal/netstack"
	"protego/internal/trace"
)

// Verdict aliases netstack's filter verdict for rule construction.
type Verdict = netstack.Verdict

// Re-exported verdicts.
const (
	Accept = netstack.Accept
	Drop   = netstack.Drop
)

// AnyProto matches every protocol in a rule.
const AnyProto = -1

// Rule matches packets on the OUTPUT path. Zero-valued match fields are
// wildcards. The UnprivRawOnly field is the paper's netfilter extension:
// such rules consider only packets from raw sockets created without
// CAP_NET_RAW.
type Rule struct {
	Name string

	Proto         int   // AnyProto or IPPROTO_*
	ICMPTypes     []int // nil = any ICMP type (when Proto is ICMP)
	DstPorts      []int // nil = any destination port
	UIDs          []int // nil = any sender uid
	UnprivRawOnly bool  // match only unprivileged raw-socket packets
	RawOnly       bool  // match only raw-socket packets (any privilege)
	SpoofedOnly   bool  // match only packets with a forged source endpoint

	Verdict Verdict

	ctr *atomic.Uint64 // match counter on the table's tracer (nil without one)
}

// matches reports whether the rule applies to the packet.
func (r *Rule) matches(pkt *netstack.Packet) bool {
	if r.UnprivRawOnly && !pkt.UnprivRaw {
		return false
	}
	if r.RawOnly && !pkt.FromRaw {
		return false
	}
	if r.SpoofedOnly && !pkt.SpoofedSource {
		return false
	}
	if r.Proto != AnyProto && r.Proto != 0 && pkt.Proto != r.Proto {
		return false
	}
	if len(r.ICMPTypes) > 0 {
		found := false
		for _, t := range r.ICMPTypes {
			if pkt.ICMPType == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(r.DstPorts) > 0 {
		found := false
		for _, p := range r.DstPorts {
			if pkt.DstPort == p {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(r.UIDs) > 0 {
		found := false
		for _, u := range r.UIDs {
			if pkt.SenderUID == u {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// String renders the rule in iptables -S style.
func (r *Rule) String() string {
	var b strings.Builder
	b.WriteString("-A OUTPUT")
	switch r.Proto {
	case netstack.IPPROTO_ICMP:
		b.WriteString(" -p icmp")
	case netstack.IPPROTO_TCP:
		b.WriteString(" -p tcp")
	case netstack.IPPROTO_UDP:
		b.WriteString(" -p udp")
	}
	if len(r.ICMPTypes) > 0 {
		b.WriteString(fmt.Sprintf(" --icmp-type %v", r.ICMPTypes))
	}
	if len(r.DstPorts) > 0 {
		b.WriteString(fmt.Sprintf(" --dports %v", r.DstPorts))
	}
	if r.UnprivRawOnly {
		b.WriteString(" -m unprivraw")
	}
	if r.SpoofedOnly {
		b.WriteString(" -m spoofed")
	}
	if r.Verdict == Drop {
		b.WriteString(" -j DROP")
	} else {
		b.WriteString(" -j ACCEPT")
	}
	if r.Name != "" {
		b.WriteString(" # " + r.Name)
	}
	return b.String()
}

// Chain is an ordered rule list with a default policy.
type Chain struct {
	Name      string
	Policy    Verdict
	rules     []*Rule
	idx       *chainIndex
	policyCtr [2]*atomic.Uint64 // policy verdict counters, indexed by Verdict
}

// counter takes tr's handle for one verdict of this chain, reached by the
// named rule or, when rule is empty, by the chain's policy.
func (c *Chain) counter(tr *trace.Tracer, rule string, v Verdict) *atomic.Uint64 {
	if rule == "" {
		rule = "(policy)"
	}
	return tr.Counter(trace.CounterKey{Hook: "netfilter:" + c.Name, Module: rule, Decision: verdictName(v)})
}

// protoPort keys the most specific dispatch bucket.
type protoPort struct {
	proto int
	port  int
}

// chainIndex is the compiled dispatch index over a chain's rules. Each
// bucket holds rule positions in ascending order, so merging the (at most
// three) buckets a packet can hit reproduces first-match-wins semantics
// while skipping every rule that could not match the packet:
//
//   - byProtoPort: rules pinning a protocol and destination ports, one
//     entry per (proto, port) pair
//   - byProto: rules pinning a protocol but no ports
//   - generic: protocol-wildcard rules, candidates for every packet
type chainIndex struct {
	byProtoPort map[protoPort][]int
	byProto     map[int][]int
	generic     []int
}

// rebuildIndexLocked recompiles the dispatch index from c.rules. Caller
// holds the table lock exclusively. Rules are visited in order, so every
// bucket is sorted by rule position.
func (c *Chain) rebuildIndexLocked() {
	idx := &chainIndex{
		byProtoPort: make(map[protoPort][]int),
		byProto:     make(map[int][]int),
	}
	for i, r := range c.rules {
		switch {
		case r.Proto == AnyProto || r.Proto == 0:
			idx.generic = append(idx.generic, i)
		case len(r.DstPorts) > 0:
			for _, p := range r.DstPorts {
				key := protoPort{proto: r.Proto, port: p}
				idx.byProtoPort[key] = append(idx.byProtoPort[key], i)
			}
		default:
			idx.byProto[r.Proto] = append(idx.byProto[r.Proto], i)
		}
	}
	c.idx = idx
}

// Table is a set of chains; the simulation uses a single "filter" table
// with an OUTPUT chain, which is all the Protego extension requires.
type Table struct {
	mu     sync.RWMutex
	chains map[string]*Chain

	// tracer, when set, receives one verdict event per filtered packet
	// and owns its counters. Installed before packet traffic starts.
	tracer *trace.Tracer
}

// NewTable creates a filter table with an empty, accept-by-default OUTPUT
// chain.
func NewTable() *Table {
	t := &Table{
		chains: make(map[string]*Chain),
	}
	out := &Chain{Name: "OUTPUT", Policy: Accept}
	out.rebuildIndexLocked()
	t.chains["OUTPUT"] = out
	return t
}

// SetTracer installs the trace sink for packet verdicts and takes the
// counter handle of every installed rule and policy verdict on it. Must
// be called before the table sees packet traffic (the kernel does it at
// boot, and again on a clone).
func (t *Table) SetTracer(tr *trace.Tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracer = tr
	for _, c := range t.chains {
		c.policyCtr = [2]*atomic.Uint64{c.counter(tr, "", Accept), c.counter(tr, "", Drop)}
		for _, r := range c.rules {
			r.ctr = c.counter(tr, r.Name, r.Verdict)
		}
	}
}

// Append adds a rule to the end of chain and recompiles the chain's
// dispatch index.
func (t *Table) Append(chain string, r *Rule) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.chains[chain]
	if !ok {
		return fmt.Errorf("netfilter: no chain %q: %w", chain, errno.ENOENT)
	}
	r.ctr = c.counter(t.tracer, r.Name, r.Verdict)
	c.rules = append(c.rules, r)
	c.rebuildIndexLocked()
	return nil
}

// Flush removes all rules from chain and recompiles the chain's dispatch
// index.
func (t *Table) Flush(chain string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.chains[chain]
	if !ok {
		return fmt.Errorf("netfilter: no chain %q: %w", chain, errno.ENOENT)
	}
	c.rules = nil
	c.rebuildIndexLocked()
	return nil
}

// SetPolicy changes the default verdict of chain.
func (t *Table) SetPolicy(chain string, v Verdict) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.chains[chain]
	if !ok {
		return fmt.Errorf("netfilter: no chain %q: %w", chain, errno.ENOENT)
	}
	c.Policy = v
	return nil
}

// Rules returns a snapshot of chain's rules.
func (t *Table) Rules(chain string) []*Rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.chains[chain]
	if !ok {
		return nil
	}
	out := make([]*Rule, len(c.rules))
	copy(out, c.rules)
	return out
}

// Output implements netstack.OutputFilter: the first matching rule's
// verdict applies; otherwise the chain policy. Candidate rules come from
// the compiled dispatch index — the (proto, dst-port) bucket, the proto
// bucket, and the generic bucket — merged in ascending rule order so the
// verdict is identical to a full first-match scan.
func (t *Table) Output(pkt *netstack.Packet) Verdict {
	t.mu.RLock()
	c := t.chains["OUTPUT"]
	rules := c.rules
	idx := c.idx
	policy := c.Policy
	policyCtr := c.policyCtr[policy]
	t.mu.RUnlock()
	pp := idx.byProtoPort[protoPort{proto: pkt.Proto, port: pkt.DstPort}]
	bp := idx.byProto[pkt.Proto]
	gen := idx.generic
	if len(pp)+len(bp)+len(gen) < len(rules) {
		t.tracer.Count(trace.NFIdxFastpath)
	}
	a, b, g := 0, 0, 0
	for a < len(pp) || b < len(bp) || g < len(gen) {
		i := int(^uint(0) >> 1)
		if a < len(pp) && pp[a] < i {
			i = pp[a]
		}
		if b < len(bp) && bp[b] < i {
			i = bp[b]
		}
		if g < len(gen) && gen[g] < i {
			i = gen[g]
		}
		if a < len(pp) && pp[a] == i {
			a++
		}
		if b < len(bp) && bp[b] == i {
			b++
		}
		if g < len(gen) && gen[g] == i {
			g++
		}
		r := rules[i]
		if r.matches(pkt) {
			t.tracer.NetfilterVerdict(r.ctr, "OUTPUT", r.Name, verdictName(r.Verdict), pkt.SenderUID)
			return r.Verdict
		}
	}
	t.tracer.NetfilterVerdict(policyCtr, "OUTPUT", "", verdictName(policy), pkt.SenderUID)
	return policy
}

// verdictName renders a verdict in iptables target style.
func verdictName(v Verdict) string {
	if v == Drop {
		return "DROP"
	}
	return "ACCEPT"
}

// List renders the whole table in iptables -S style.
func (t *Table) List() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	for name, c := range t.chains {
		pol := "ACCEPT"
		if c.Policy == Drop {
			pol = "DROP"
		}
		fmt.Fprintf(&b, "-P %s %s\n", name, pol)
		for _, r := range c.rules {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ProtegoDefaultRules returns the default OUTPUT ruleset Protego installs
// for unprivileged raw sockets, mined from the studied setuid binaries
// (ping, traceroute, arping, mtr): benign ICMP is allowed; raw packets that
// forge another socket's TCP/UDP source endpoint are dropped; all other
// unprivileged raw TCP/UDP fabrication is dropped. Non-raw traffic is
// untouched.
func ProtegoDefaultRules() []*Rule {
	return []*Rule{
		{
			Name:        "drop-spoofed-raw",
			RawOnly:     true,
			SpoofedOnly: true,
			Proto:       AnyProto,
			Verdict:     Drop,
		},
		{
			Name:          "allow-unpriv-icmp-echo",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_ICMP,
			ICMPTypes:     []int{netstack.ICMPEchoRequest, netstack.ICMPEchoReply},
			Verdict:       Accept,
		},
		{
			Name:          "allow-unpriv-udp-probe",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_UDP,
			DstPorts:      traceroutePorts(),
			Verdict:       Accept,
		},
		{
			Name:          "drop-unpriv-raw-tcp",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_TCP,
			Verdict:       Drop,
		},
		{
			Name:          "drop-unpriv-raw-udp",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_UDP,
			Verdict:       Drop,
		},
		{
			Name:          "drop-unpriv-raw-other",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_RAW,
			Verdict:       Drop,
		},
	}
}

// traceroutePorts returns the classic UDP probe port range used by
// traceroute (33434–33523), which the default policy whitelists.
func traceroutePorts() []int {
	ports := make([]int, 0, 90)
	for p := 33434; p <= 33523; p++ {
		ports = append(ports, p)
	}
	return ports
}
