package netfilter

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"protego/internal/netstack"
	"protego/internal/trace"
)

func icmpEcho(unpriv bool) *netstack.Packet {
	return &netstack.Packet{
		Proto: netstack.IPPROTO_ICMP, ICMPType: netstack.ICMPEchoRequest,
		FromRaw: true, UnprivRaw: unpriv,
	}
}

func rawTCP(unpriv, spoofed bool) *netstack.Packet {
	return &netstack.Packet{
		Proto: netstack.IPPROTO_TCP, SrcPort: 80, DstPort: 6667,
		FromRaw: true, UnprivRaw: unpriv, SpoofedSource: spoofed,
	}
}

func protegoTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable()
	for _, r := range ProtegoDefaultRules() {
		if err := tbl.Append("OUTPUT", r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestDefaultPolicyAccepts(t *testing.T) {
	tbl := NewTable()
	if v := tbl.Output(rawTCP(true, true)); v != Accept {
		t.Fatal("empty table must accept (policy)")
	}
}

func TestProtegoRulesICMPAllowed(t *testing.T) {
	tbl := protegoTable(t)
	if v := tbl.Output(icmpEcho(true)); v != Accept {
		t.Fatal("unprivileged ICMP echo must pass")
	}
	if v := tbl.Output(icmpEcho(false)); v != Accept {
		t.Fatal("privileged ICMP echo must pass")
	}
}

func TestProtegoRulesDropRawTCP(t *testing.T) {
	tbl := protegoTable(t)
	if v := tbl.Output(rawTCP(true, false)); v != Drop {
		t.Fatal("unprivileged raw TCP must drop")
	}
	// Privileged (CAP_NET_RAW) raw TCP is not the extension's concern,
	// unless spoofed.
	if v := tbl.Output(rawTCP(false, false)); v != Accept {
		t.Fatal("privileged raw TCP passes")
	}
	if v := tbl.Output(rawTCP(false, true)); v != Drop {
		t.Fatal("spoofed raw packets always drop")
	}
}

func TestProtegoRulesTraceroutePorts(t *testing.T) {
	tbl := protegoTable(t)
	probe := &netstack.Packet{
		Proto: netstack.IPPROTO_UDP, DstPort: 33434,
		FromRaw: true, UnprivRaw: true,
	}
	if v := tbl.Output(probe); v != Accept {
		t.Fatal("traceroute probe must pass")
	}
	probe.DstPort = 33600 // outside the probe range
	if v := tbl.Output(probe); v != Drop {
		t.Fatal("non-probe unpriv raw UDP must drop")
	}
}

func TestNonRawTrafficUntouched(t *testing.T) {
	tbl := protegoTable(t)
	normal := &netstack.Packet{Proto: netstack.IPPROTO_TCP, DstPort: 80}
	if v := tbl.Output(normal); v != Accept {
		t.Fatal("ordinary TCP must pass")
	}
}

// TestRuleMatchCounters: rule and policy verdicts count on the tracer's
// netfilter:OUTPUT keys, for rules installed before SetTracer and after.
func TestRuleMatchCounters(t *testing.T) {
	tbl := protegoTable(t)
	tr := trace.New(64)
	tbl.SetTracer(tr)
	if err := tbl.Append("OUTPUT", &Rule{Name: "drop-uid-7", UIDs: []int{7}, Verdict: Drop}); err != nil {
		t.Fatal(err)
	}
	_ = tbl.Output(icmpEcho(true))
	_ = tbl.Output(rawTCP(true, false))
	_ = tbl.Output(&netstack.Packet{Proto: netstack.IPPROTO_UDP, DstPort: 53, SenderUID: 7})
	_ = tbl.Output(&netstack.Packet{Proto: netstack.IPPROTO_UDP, DstPort: 53})
	want := map[trace.CounterKey]uint64{
		{Hook: "netfilter:OUTPUT", Module: "allow-unpriv-icmp-echo", Decision: "ACCEPT"}: 1,
		{Hook: "netfilter:OUTPUT", Module: "drop-unpriv-raw-tcp", Decision: "DROP"}:      1,
		{Hook: "netfilter:OUTPUT", Module: "drop-uid-7", Decision: "DROP"}:               1,
		{Hook: "netfilter:OUTPUT", Module: "(policy)", Decision: "ACCEPT"}:               1,
	}
	if got := tr.Counters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counters = %v, want %v", got, want)
	}
}

func TestFirstMatchWins(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Append("OUTPUT", &Rule{Name: "first", Proto: AnyProto, Verdict: Drop})
	_ = tbl.Append("OUTPUT", &Rule{Name: "second", Proto: AnyProto, Verdict: Accept})
	if v := tbl.Output(icmpEcho(false)); v != Drop {
		t.Fatal("first rule should win")
	}
}

func TestFlushAndPolicy(t *testing.T) {
	tbl := protegoTable(t)
	if err := tbl.Flush("OUTPUT"); err != nil {
		t.Fatal(err)
	}
	if v := tbl.Output(rawTCP(true, false)); v != Accept {
		t.Fatal("flushed table accepts")
	}
	if err := tbl.SetPolicy("OUTPUT", Drop); err != nil {
		t.Fatal(err)
	}
	if v := tbl.Output(icmpEcho(false)); v != Drop {
		t.Fatal("policy drop ignored")
	}
	if err := tbl.Flush("NOCHAIN"); err == nil {
		t.Fatal("flush of unknown chain should fail")
	}
	if err := tbl.SetPolicy("NOCHAIN", Drop); err == nil {
		t.Fatal("policy on unknown chain should fail")
	}
	if err := tbl.Append("NOCHAIN", &Rule{}); err == nil {
		t.Fatal("append to unknown chain should fail")
	}
}

func TestUIDMatch(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Append("OUTPUT", &Rule{Name: "block-eve", UIDs: []int{1005}, Proto: AnyProto, Verdict: Drop})
	pkt := icmpEcho(false)
	pkt.SenderUID = 1005
	if v := tbl.Output(pkt); v != Drop {
		t.Fatal("uid rule should match")
	}
	pkt.SenderUID = 1000
	if v := tbl.Output(pkt); v != Accept {
		t.Fatal("other uid should pass")
	}
}

func TestListRendering(t *testing.T) {
	tbl := protegoTable(t)
	out := tbl.List()
	if !strings.Contains(out, "-P OUTPUT ACCEPT") {
		t.Fatalf("missing policy line: %q", out)
	}
	if !strings.Contains(out, "-m unprivraw") || !strings.Contains(out, "-j DROP") {
		t.Fatalf("missing rule rendering: %q", out)
	}
	if !strings.Contains(out, "# drop-spoofed-raw") {
		t.Fatalf("missing rule name: %q", out)
	}
}

func TestRulesSnapshot(t *testing.T) {
	tbl := protegoTable(t)
	rules := tbl.Rules("OUTPUT")
	if len(rules) != len(ProtegoDefaultRules()) {
		t.Fatalf("rules = %d", len(rules))
	}
	if tbl.Rules("NOCHAIN") != nil {
		t.Fatal("unknown chain should yield nil")
	}
}

// Property: a packet that is not raw is never dropped by the Protego
// default rules — the "applications that do not use any privileged
// functionality" guarantee underlying Table 5.
func TestNonRawNeverDroppedProperty(t *testing.T) {
	tbl := protegoTable(t)
	f := func(proto uint8, srcPort, dstPort uint16, icmpType uint8, uid uint16) bool {
		pkt := &netstack.Packet{
			Proto:     int(proto),
			SrcPort:   int(srcPort),
			DstPort:   int(dstPort),
			ICMPType:  int(icmpType),
			SenderUID: int(uid),
		}
		return tbl.Output(pkt) == Accept
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: spoofed raw packets are always dropped by the default rules,
// whatever their other fields.
func TestSpoofedAlwaysDroppedProperty(t *testing.T) {
	tbl := protegoTable(t)
	f := func(proto uint8, dstPort uint16, unpriv bool) bool {
		pkt := &netstack.Packet{
			Proto:         int(proto),
			DstPort:       int(dstPort),
			FromRaw:       true,
			UnprivRaw:     unpriv,
			SpoofedSource: true,
		}
		return tbl.Output(pkt) == Drop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
