package trace

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {4096, 4096},
	}
	for _, c := range cases {
		if got := NewRing(c.in).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRingOverwriteOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(Event{Kind: KindAudit, Msg: "m", Time: time.Now()})
	}
	if r.Emitted() != 10 {
		t.Fatalf("Emitted = %d, want 10", r.Emitted())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(evs))
	}
	// Oldest retained event is seq 6; sequence must be dense and ordered.
	for i, ev := range evs {
		if ev.Seq != uint64(6+i) {
			t.Errorf("Snapshot[%d].Seq = %d, want %d", i, ev.Seq, 6+i)
		}
	}
}

func TestRingSnapshotBeforeWrap(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Append(Event{Kind: KindAudit, Time: time.Now()})
	}
	if got := len(r.Snapshot()); got != 3 {
		t.Fatalf("Snapshot len = %d, want 3", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

// TestRingConcurrentWriters is the satellite concurrency property: parallel
// writers must not corrupt the cursor or lose more events than the drop
// counter accounts for. Run with -race.
func TestRingConcurrentWriters(t *testing.T) {
	const (
		writers   = 8
		perWriter = 5000
	)
	r := NewRing(1024)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Append(Event{Kind: KindSyscallExit, Name: "getpid", PID: w, Time: time.Now()})
			}
		}(w)
	}
	// Concurrent readers exercise the torn-slot path.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)

	if got := r.Emitted(); got != writers*perWriter {
		t.Fatalf("Emitted = %d, want %d (cursor corrupted)", got, writers*perWriter)
	}
	// After writers quiesce the identity retained == emitted - dropped
	// holds exactly.
	evs := r.Snapshot()
	want := r.Emitted() - r.Dropped()
	if uint64(len(evs)) != want {
		t.Fatalf("retained %d events, want emitted-dropped = %d", len(evs), want)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("snapshot not dense at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{100, 200, 400, 800, 1600} {
		h.Observe(d * time.Nanosecond)
	}
	s := h.Stats()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.MeanNs != 620 {
		t.Fatalf("MeanNs = %v, want 620", s.MeanNs)
	}
	if s.MaxNs != 1600 {
		t.Fatalf("MaxNs = %d, want 1600", s.MaxNs)
	}
	// p50 lands in the bucket of 400ns ([256,512)).
	if s.P50Ns < 256 || s.P50Ns >= 512 {
		t.Fatalf("P50Ns = %v, want within [256,512)", s.P50Ns)
	}
	// p99 lands in the bucket of 1600ns ([1024,2048)).
	if s.P99Ns < 1024 || s.P99Ns >= 2048 {
		t.Fatalf("P99Ns = %v, want within [1024,2048)", s.P99Ns)
	}
	if s.Sparkline() == "" {
		t.Fatal("Sparkline empty for non-empty histogram")
	}
}

func TestHistogramZeroAndOverflow(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(time.Duration(1) << 62)
	s := h.Stats()
	if s.Buckets[0] != 1 {
		t.Errorf("zero duration not in bucket 0")
	}
	if s.Buckets[histBuckets-1] != 1 {
		t.Errorf("huge duration not in overflow bucket")
	}
}

func TestTracerSyscallRoundTrip(t *testing.T) {
	tr := New(64)
	tok := tr.SyscallEnter("open", 42, 1000)
	tr.SyscallExit(tok, errors.New("EACCES"))

	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(evs))
	}
	if evs[0].Kind != KindSyscallEnter || evs[1].Kind != KindSyscallExit {
		t.Fatalf("kinds = %v %v", evs[0].Kind, evs[1].Kind)
	}
	if evs[1].Err != "EACCES" {
		t.Fatalf("exit Err = %q", evs[1].Err)
	}
	if evs[1].PID != 42 || evs[1].UID != 1000 {
		t.Fatalf("exit pid/uid = %d/%d", evs[1].PID, evs[1].UID)
	}
	h := tr.Histogram("open")
	if h.Count != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count)
	}
	if tr.Histogram("never-called").Count != 0 {
		t.Fatal("unknown syscall should report zero stats")
	}
}

func TestTracerCountersAndStats(t *testing.T) {
	tr := New(64)
	tr.LSMDecision("MountCheck", 1, 1000, "grant", "protego", nil, time.Microsecond)
	protego, apparmor := tr.ModuleSlot("protego"), tr.ModuleSlot("apparmor")
	tr.CountHook(HookMount, protego, 1)
	tr.CountHook(HookMount, protego, 1)
	tr.CountHook(HookMount, apparmor, 0)
	tr.ModuleSlot("seccomp") // never counts, so never listed
	rule := CounterKey{"netfilter:OUTPUT", "drop-unpriv-raw-tcp", "DROP"}
	tr.NetfilterVerdict(tr.Counter(rule), "OUTPUT", "drop-unpriv-raw-tcp", "DROP", 1000)
	tr.Counter(CounterKey{"netfilter:OUTPUT", "(policy)", "ACCEPT"}) // taken, never bumped
	tr.AuthCheck(AuthPassword, "alice", 7, 1000, false)
	tr.Count(SetuidDefer)
	tr.Audit("mount denied")

	want := map[CounterKey]uint64{
		{"MountCheck", "protego", "grant"}:          2,
		{"MountCheck", "apparmor", "no-opinion"}:    1,
		rule:                                        1,
		{"auth:password", "password", "fail"}:       1,
		{"core:setuid", "protego", "defer-to-exec"}: 1,
	}
	if ctrs := tr.Counters(); !reflect.DeepEqual(ctrs, want) {
		t.Fatalf("Counters = %v, want %v", ctrs, want)
	}
	if got := tr.Load(SetuidDefer); got != 1 {
		t.Fatalf("Load(SetuidDefer) = %d, want 1", got)
	}
	s := tr.Stats()
	if s.Emitted != 4 {
		t.Fatalf("Emitted = %d, want 4", s.Emitted)
	}
	if s.ByKind["lsm"] != 1 || s.ByKind["netfilter"] != 1 || s.ByKind["auth"] != 1 || s.ByKind["audit"] != 1 {
		t.Fatalf("ByKind = %v", s.ByKind)
	}
	if tr.EmittedKind(KindAudit) != 1 {
		t.Fatalf("EmittedKind(audit) = %d", tr.EmittedKind(KindAudit))
	}

	out := tr.RenderStats()
	for _, want := range []string{"ring: capacity=64", "lsm:MountCheck", "decision counters:", "drop-unpriv-raw-tcp"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderStats missing %q:\n%s", want, out)
		}
	}
	if got := tr.RenderEvents(2); strings.Count(got, "\n") != 2 {
		t.Errorf("RenderEvents(2) returned %q", got)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tok := tr.SyscallEnter("open", 1, 2)
	tr.SyscallExit(tok, nil)
	tr.LSMDecision("MountCheck", 1, 2, "deny", "", nil, 0)
	tr.CountHook(HookMount, 0, 0)
	tr.Count(NFIdxFastpath)
	tr.Count(MountGrant)
	if c := tr.Counter(CounterKey{"h", "m", "d"}); c != nil {
		t.Fatalf("nil tracer Counter = %p, want nil", c)
	}
	if n := tr.Load(MountGrant); n != 0 {
		t.Fatalf("nil tracer Outcome = %d, want 0", n)
	}
	tr.NetfilterVerdict(nil, "OUTPUT", "", "ACCEPT", 0)
	tr.MonitordSync("mounts", 0, nil)
	tr.AuthCheck(AuthPassword, "alice", 1, 2, true)
	tr.Audit("x")
	tr.Emit(Event{Kind: KindAudit})
}

func TestSnapshotKindFiltering(t *testing.T) {
	tr := New(64)
	tr.Audit("one")
	tr.SyscallExit(tr.SyscallEnter("open", 1, 2), nil)
	tr.Audit("two")
	audits := tr.SnapshotKind(KindAudit)
	if len(audits) != 2 || audits[0].Msg != "one" || audits[1].Msg != "two" {
		t.Fatalf("SnapshotKind(audit) = %+v", audits)
	}
}

func TestTracerConcurrentMixedUse(t *testing.T) {
	tr := New(256)
	apparmor := tr.ModuleSlot("apparmor")
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				switch i % 4 {
				case 0:
					tr.SyscallExit(tr.SyscallEnter("getpid", w, w), nil)
				case 1:
					tr.LSMDecision("FileOpen", w, w, "no-opinion", "", nil, time.Nanosecond)
				case 2:
					tr.CountHook(HookFileOpen, apparmor, 0)
				case 3:
					tr.Audit("line")
				}
				if i%512 == 0 {
					tr.Snapshot()
					tr.Histograms()
					tr.Counters()
					tr.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Histogram("getpid").Count != 6*500 {
		t.Fatalf("getpid histogram count = %d, want %d", tr.Histogram("getpid").Count, 6*500)
	}
}

// BenchmarkEmission measures the cost the trace layer adds to one simulated
// syscall (an enter/exit pair plus the histogram observation). The
// acceptance bar is < 1µs per event pair.
func BenchmarkEmission(b *testing.B) {
	tr := New(DefaultCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SyscallExit(tr.SyscallEnter("getpid", 1, 1000), nil)
	}
}

// BenchmarkEmissionParallel exercises contended emission.
func BenchmarkEmissionParallel(b *testing.B) {
	tr := New(DefaultCapacity)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.SyscallExit(tr.SyscallEnter("getpid", 1, 1000), nil)
		}
	})
}

// BenchmarkRingAppend isolates the ring's append path.
func BenchmarkRingAppend(b *testing.B) {
	r := NewRing(DefaultCapacity)
	ev := Event{Kind: KindAudit, Name: "x", Time: time.Now()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Append(ev)
	}
}

// TestCountersExact checks that the counters lose no increments under
// parallel writers: goroutines bumping shared and disjoint cells of every
// kind must read back exact totals, while run-time keys are created and
// the module slots are taken concurrently.
func TestCountersExact(t *testing.T) {
	tr := New(64)
	const (
		writers = 8
		bumps   = 1000
	)
	rule := CounterKey{Hook: "netfilter:OUTPUT", Module: "rule", Decision: "ACCEPT"}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := tr.ModuleSlot("module")
			own := Hook(w) // one private matrix row per writer
			ctr := tr.Counter(rule)
			for i := 0; i < bumps; i++ {
				tr.CountHook(HookTaskSyscall, slot, 3)
				tr.CountHook(own, slot, 1)
				tr.Count(SyscallAllow)
				tr.Count(FileGrant)
				tr.AuthCheck(AuthGroup, "wheel", w, w, true)
				ctr.Add(1)
				if i%100 == 0 {
					// New run-time keys grow the map mid-run.
					tr.Counter(CounterKey{Hook: "fault:site", Module: fmt.Sprint(w), Decision: fmt.Sprint(i)}).Add(1)
					tr.Counters()
				}
			}
		}()
	}
	wg.Wait()
	ctrs := tr.Counters()
	for key, want := range map[CounterKey]uint64{
		{"TaskSyscall", "module", "deny"}: writers * bumps,
		{"auth:group", "group", "ok"}:     writers * bumps,
		{"core:file", "protego", "grant"}: writers * bumps,
		rule:                              writers * bumps,
		{"fault:site", "3", "500"}:        1,
	} {
		if ctrs[key] != want {
			t.Fatalf("%v = %d, want %d", key, ctrs[key], want)
		}
	}
	for w := 0; w < writers; w++ {
		key := CounterKey{Hook: Hook(w).String(), Module: "module", Decision: "grant"}
		if ctrs[key] != bumps {
			t.Fatalf("%v = %d, want %d", key, ctrs[key], bumps)
		}
	}
	if got := tr.FastpathCounters()["lsm.syscall.allow"]; got != writers*bumps {
		t.Fatalf("lsm.syscall.allow = %d, want %d", got, writers*bumps)
	}
	if len(ctrs) != 4+writers+writers*bumps/100 {
		t.Fatalf("%d counters, want %d", len(ctrs), 4+writers+writers*bumps/100)
	}
}

// TestModuleSlots: names get slots in first-use order, a repeated name
// shares its slot, and a name past the last slot panics naming itself.
func TestModuleSlots(t *testing.T) {
	tr := New(16)
	for i := 0; i < MaxModules; i++ {
		if got := tr.ModuleSlot(fmt.Sprint("m", i)); got != i {
			t.Fatalf("slot of m%d = %d, want %d", i, got, i)
		}
	}
	if got := tr.ModuleSlot("m3"); got != 3 {
		t.Fatalf("repeated name got slot %d, want 3", got)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"one-too-many"`) {
			t.Fatalf("recover() = %v, want a panic naming the module", r)
		}
	}()
	tr.ModuleSlot("one-too-many")
}
