package main

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestSelfTimes checks self-time arithmetic on a synthetic span tree:
//
//	root   [0, 100)
//	  a    [10, 40)
//	    a1 [15, 20)
//	    a2 [22, 30)
//	  b    [50, 90)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "a2", Start: 22, End: 30, Parent: 1},
		{Name: "b", Start: 50, End: 90, Parent: 0},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 40, 30 - 5 - 8, 5, 8, 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

// TestRecorderTree checks that the recorder links children to the open
// span, tags spans with the op, and drops whole subtrees past its limit.
func TestRecorderTree(t *testing.T) {
	r := newRecorder(3)
	r.setOp(7)
	root := r.begin("world", "outer")
	child := r.begin("vfs", "inner")
	r.end(child)
	r.end(root)
	r.setOp(8)
	top := r.begin("world", "second")
	dropped := r.begin("vfs", "too-many")
	r.end(dropped)
	r.end(top)
	if len(r.spans) != 3 || r.dropped != 1 {
		t.Fatalf("kept %d spans, dropped %d; want 3 and 1", len(r.spans), r.dropped)
	}
	if r.spans[1].Parent != 0 || r.spans[0].Parent != -1 || r.spans[2].Parent != -1 {
		t.Fatalf("parents = %d %d %d", r.spans[0].Parent, r.spans[1].Parent, r.spans[2].Parent)
	}
	if r.spans[0].Op != 7 || r.spans[2].Op != 8 {
		t.Fatalf("ops = %d, %d", r.spans[0].Op, r.spans[2].Op)
	}
	self, ops := r.selfPerLayer(8)
	if ops != 1 || self["vfs"] != 0 {
		t.Fatalf("self from op 8: %v over %d ops", self, ops)
	}

	var nilRec *recorder // the untraced run
	nilRec.end(nilRec.begin("kernel", "x"))
	if s := nilRec.summarize(); len(s.durations) != 0 {
		t.Fatal("nil recorder recorded spans")
	}
}

// TestTailQuantile checks the rule that picks the reported tail: the
// highest percentile with at least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestHistQuantile checks the histogram resolves values to within 1%.
func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}, {0.001, 1e3}} {
		got := h.quantile(c.q)
		if got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("quantile(%g) = %g, want %g within 1%%", c.q, got, c.want)
		}
	}
	for _, ns := range []int64{0, 1, 127, 128, 255, 256, 1e9, 1 << 62} {
		if v := histValue(histIndex(ns)); v < float64(ns)*0.99 || v > float64(ns)*1.01+1 {
			t.Errorf("bucket of %d has midpoint %g", ns, v)
		}
	}
}

// TestSeedsDetermineInputs checks the seed plumbing: the same seed gives
// the same op sequence, another seed a different one.
func TestSeedsDetermineInputs(t *testing.T) {
	if !reflect.DeepEqual(genMix(devSeed), genMix(devSeed)) {
		t.Error("syscall_mix: same seed, different ops")
	}
	if reflect.DeepEqual(genMix(devSeed), genMix(holdoutSeed)) {
		t.Error("syscall_mix: different seeds, same ops")
	}
	if !reflect.DeepEqual(genFlows(devSeed), genFlows(devSeed)) {
		t.Error("utility_flows: same seed, different flows")
	}
	if reflect.DeepEqual(genFlows(devSeed), genFlows(holdoutSeed)) {
		t.Error("utility_flows: different seeds, same flows")
	}
	traces := func(seed int64) []string {
		f, err := setupDiffFuzz(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 8; i++ {
			out = append(out, f.(*diffFixture).gen.Next().String())
		}
		return out
	}
	if !reflect.DeepEqual(traces(devSeed), traces(devSeed)) || reflect.DeepEqual(traces(devSeed), traces(holdoutSeed)) {
		t.Error("difffuzz: traces do not follow the seed")
	}
	scenarios := func(seed int64) []string {
		f, err := setupVulngen(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 10; i++ {
			out = append(out, f.(*vulnFixture).gen.Scenario().Encode())
		}
		return out
	}
	if !reflect.DeepEqual(scenarios(devSeed), scenarios(devSeed)) || reflect.DeepEqual(scenarios(devSeed), scenarios(holdoutSeed)) {
		t.Error("vulngen: scenarios do not follow the seed")
	}
}

// TestOracleCoversMix checks every generated call variant has an
// expected outcome, and that rounds tile the sequence exactly.
func TestOracleCoversMix(t *testing.T) {
	ops := genMix(devSeed)
	if len(ops)%mixRound != 0 {
		t.Fatalf("%d ops is not a whole number of %d-op rounds", len(ops), mixRound)
	}
	for _, op := range ops {
		if _, ok := mixOracle[mixVariant(op)]; !ok {
			t.Fatalf("no oracle row for %s", mixVariant(op))
		}
	}
}

// TestCountersRepeat runs a fixed number of rounds of every workload
// twice on fresh set-ups with one seed and checks that every op passes
// its oracle and that the program's counters come out identical.
func TestCountersRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rounds := 3
			if testing.Short() && (w.name == "difffuzz" || w.name == "vulngen") {
				rounds = 1
			}
			once := func() map[string]uint64 {
				fix, err := w.setup(devSeed)
				if err != nil {
					t.Fatal(err)
				}
				m := newMeter(nil)
				for i := 0; i < rounds; i++ {
					if err := fix.round(m); err != nil {
						t.Fatal(err)
					}
				}
				if m.failed > 0 {
					t.Fatalf("%d of %d ops failed their check: %v", m.failed, m.attempted, m.mismatch)
				}
				return fix.counters()
			}
			a, b := once(), once()
			if len(a) == 0 {
				t.Fatal("no counters")
			}
			if !reflect.DeepEqual(a, b) {
				for k := range a {
					if a[k] != b[k] {
						t.Errorf("counter %s: %d then %d", k, a[k], b[k])
					}
				}
				t.Fatal("counters differ between runs of one seed")
			}
		})
	}
}

// TestSpecInSync checks BENCHMARK.json is what the program declares.
func TestSpecInSync(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `bash perfbench/run.sh --spec > BENCHMARK.json`")
	}
}
