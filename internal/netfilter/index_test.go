package netfilter

import (
	"math/rand"
	"testing"

	"protego/internal/netstack"
	"protego/internal/trace"
)

// scanOutput is the reference: the pre-index full first-match scan.
func scanOutput(t *Table, pkt *netstack.Packet) Verdict {
	c := t.chains["OUTPUT"]
	for _, r := range c.rules {
		if r.matches(pkt) {
			return r.Verdict
		}
	}
	return c.Policy
}

func TestIndexFirstMatchOrder(t *testing.T) {
	tbl := NewTable()
	// An earlier generic rule must win over a later, more specific one
	// even though the specific rule lives in a "better" bucket.
	mustAppend := func(r *Rule) {
		t.Helper()
		if err := tbl.Append("OUTPUT", r); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(&Rule{Name: "generic-accept", Proto: AnyProto, Verdict: Accept})
	mustAppend(&Rule{Name: "tcp-80-drop", Proto: netstack.IPPROTO_TCP,
		DstPorts: []int{80}, Verdict: Drop})
	pkt := &netstack.Packet{Proto: netstack.IPPROTO_TCP, DstPort: 80}
	if v := tbl.Output(pkt); v != Accept {
		t.Fatalf("verdict = %v, want Accept (first-match order violated)", v)
	}
}

func TestIndexMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	protos := []int{AnyProto, netstack.IPPROTO_ICMP, netstack.IPPROTO_TCP,
		netstack.IPPROTO_UDP, netstack.IPPROTO_RAW}
	for trial := 0; trial < 50; trial++ {
		tbl := NewTable()
		nrules := rng.Intn(20)
		for i := 0; i < nrules; i++ {
			r := &Rule{
				Name:    "r",
				Proto:   protos[rng.Intn(len(protos))],
				Verdict: Verdict(rng.Intn(2)),
			}
			if rng.Intn(2) == 0 && r.Proto != AnyProto {
				for n := rng.Intn(3); n >= 0; n-- {
					r.DstPorts = append(r.DstPorts, rng.Intn(5))
				}
			}
			if rng.Intn(4) == 0 {
				r.UnprivRawOnly = true
			}
			if rng.Intn(4) == 0 {
				r.SpoofedOnly = true
			}
			if err := tbl.Append("OUTPUT", r); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			tbl.SetPolicy("OUTPUT", Drop)
		}
		for p := 0; p < 40; p++ {
			pkt := &netstack.Packet{
				Proto:         protos[1:][rng.Intn(len(protos)-1)],
				DstPort:       rng.Intn(5),
				FromRaw:       rng.Intn(2) == 0,
				UnprivRaw:     rng.Intn(2) == 0,
				SpoofedSource: rng.Intn(2) == 0,
			}
			want := scanOutput(tbl, pkt)
			if got := tbl.Output(pkt); got != want {
				t.Fatalf("trial %d: indexed verdict %v, scan verdict %v (pkt %+v)",
					trial, got, want, pkt)
			}
		}
	}
}

func TestIndexFastpathCounter(t *testing.T) {
	tbl := NewTable()
	for _, r := range ProtegoDefaultRules() {
		if err := tbl.Append("OUTPUT", r); err != nil {
			t.Fatal(err)
		}
	}
	tr := trace.New(64)
	tbl.SetTracer(tr)
	// A TCP packet cannot match the ICMP or UDP-probe rules: the index
	// prunes them, so the fastpath counter moves.
	tbl.Output(&netstack.Packet{Proto: netstack.IPPROTO_TCP, DstPort: 22, FromRaw: true})
	if got := tr.FastpathCounters()["nfidx.fastpath"]; got != 1 {
		t.Fatalf("nfidx.fastpath = %d, want 1", got)
	}
}

func TestIndexRebuiltOnFlush(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Append("OUTPUT", &Rule{Name: "drop-all", Proto: AnyProto, Verdict: Drop}); err != nil {
		t.Fatal(err)
	}
	pkt := &netstack.Packet{Proto: netstack.IPPROTO_UDP, DstPort: 53}
	if v := tbl.Output(pkt); v != Drop {
		t.Fatalf("before flush: %v", v)
	}
	if err := tbl.Flush("OUTPUT"); err != nil {
		t.Fatal(err)
	}
	if v := tbl.Output(pkt); v != Accept {
		t.Fatalf("after flush: %v, want chain policy Accept", v)
	}
}
