package trace

import (
	"reflect"
	"strings"
	"testing"
)

func TestFastpathCounters(t *testing.T) {
	tr := New(16)
	want := map[string]uint64{"mountidx.hit": 0, "nfidx.fastpath": 0, "lsm.syscall.allow": 0}
	if got := tr.FastpathCounters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh tracer: FastpathCounters = %v, want %v", got, want)
	}
	for i := 0; i < 7; i++ {
		tr.Count(MountIdxHit)
	}
	tr.Count(NFIdxFastpath)
	want["mountidx.hit"], want["nfidx.fastpath"] = 7, 1
	if got := tr.FastpathCounters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FastpathCounters = %v, want %v", got, want)
	}
}

func TestFastpathCountersNilSafe(t *testing.T) {
	var nilTr *Tracer
	nilTr.Count(MountIdxHit)
	if m := nilTr.FastpathCounters(); m != nil {
		t.Fatalf("nil tracer FastpathCounters = %v, want nil", m)
	}
}

func TestRenderStatsFastpathSection(t *testing.T) {
	tr := New(16)
	for i := 0; i < 9; i++ {
		tr.Count(NFIdxFastpath)
	}
	for i := 0; i < 5; i++ {
		tr.Count(MountIdxHit)
	}
	out := tr.RenderStats()
	for _, want := range []string{
		"fastpath counters:",
		"  lsm.syscall.allow        0\n",
		"  mountidx.hit             5\n",
		"  nfidx.fastpath           9\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderStats missing %q:\n%s", want, out)
		}
	}
}
