package trace

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestFastpathCounterRegistryReadsLazily(t *testing.T) {
	tr := New(16)
	var n atomic.Uint64
	tr.RegisterCounter("mountidx.hit", n.Load)
	n.Store(7)
	if got := tr.FastpathCounters()["mountidx.hit"]; got != 7 {
		t.Fatalf("mountidx.hit = %d, want 7 (must read at snapshot time)", got)
	}
	n.Add(3)
	if got := tr.FastpathCounters()["mountidx.hit"]; got != 10 {
		t.Fatalf("mountidx.hit = %d, want 10", got)
	}
}

func TestFastpathCounterReplaceAndNilSafety(t *testing.T) {
	tr := New(16)
	tr.RegisterCounter("x", func() uint64 { return 1 })
	tr.RegisterCounter("x", func() uint64 { return 2 })
	if got := tr.FastpathCounters()["x"]; got != 2 {
		t.Fatalf("x = %d, want 2 (re-registration replaces the reader)", got)
	}
	var nilTr *Tracer
	nilTr.RegisterCounter("x", func() uint64 { return 1 })
	if m := nilTr.FastpathCounters(); m != nil {
		t.Fatalf("nil tracer FastpathCounters = %v, want nil", m)
	}
	tr.RegisterCounter("nil-reader", nil) // must not panic at read time
	_ = tr.FastpathCounters()
}

func TestRenderStatsFastpathSection(t *testing.T) {
	tr := New(16)
	out := tr.RenderStats()
	if strings.Contains(out, "fastpath counters:") {
		t.Fatal("empty registry must not render a fastpath section")
	}
	tr.RegisterCounter("nfidx.fastpath", func() uint64 { return 9 })
	tr.RegisterCounter("mountidx.hit", func() uint64 { return 5 })
	out = tr.RenderStats()
	for _, want := range []string{
		"fastpath counters:",
		"  mountidx.hit             5\n",
		"  nfidx.fastpath           9\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderStats missing %q:\n%s", want, out)
		}
	}
}
