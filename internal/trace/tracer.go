package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the default ring size: 4096 events (a power of two).
// This is also the retention cap of the legacy kernel audit log, which is
// a filtered view of the same ring.
const DefaultCapacity = 4096

// CounterKey identifies one (hook, module, decision) decision counter.
type CounterKey struct {
	Hook     string
	Module   string
	Decision string
}

// Tracer owns the event ring, the latency histograms, and every counter
// (counters.go). One tracer is created per simulated kernel; every
// producer in the kernel emits through it. All methods are safe for
// concurrent use.
type Tracer struct {
	ring *Ring

	// emitted counts events per kind (never decremented), so consumers
	// can compute per-kind drop counts against a ring snapshot.
	emitted [numKinds]atomic.Uint64

	histMu sync.RWMutex
	hists  map[histKey]*Histogram

	// Fixed counter cells (see counters.go).
	lsm   [NumHooks][MaxModules][NumDecisions]atomic.Uint64
	cells [numCells]atomic.Uint64

	// ctrMu guards the matrix's module names and the run-time counters.
	ctrMu    sync.Mutex
	modules  [MaxModules]string
	nModules int
	named    map[CounterKey]*atomic.Uint64
}

// New creates a tracer whose ring holds at least capacity events
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		ring:  NewRing(capacity),
		hists: make(map[histKey]*Histogram),
		named: make(map[CounterKey]*atomic.Uint64),
	}
}

// Emit stamps and appends an arbitrary event.
func (tr *Tracer) Emit(ev Event) {
	if tr == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if ev.Kind < numKinds {
		tr.emitted[ev.Kind].Add(1)
	}
	tr.ring.Append(ev)
}

// SyscallToken carries the state between a syscall's enter and exit event.
type SyscallToken struct {
	name  string
	pid   int
	uid   int
	start time.Time
}

// SyscallEnter emits the enter event and returns the token the matching
// SyscallExit consumes.
func (tr *Tracer) SyscallEnter(name string, pid, uid int) SyscallToken {
	tok := SyscallToken{name: name, pid: pid, uid: uid, start: time.Now()}
	if tr != nil {
		tr.Emit(Event{Kind: KindSyscallEnter, Name: name, PID: pid, UID: uid, Time: tok.start})
	}
	return tok
}

// SyscallExit emits the exit event, records the latency in the syscall's
// histogram, and tags the event with the error, if any.
func (tr *Tracer) SyscallExit(tok SyscallToken, err error) {
	if tr == nil {
		return
	}
	lat := time.Since(tok.start)
	ev := Event{Kind: KindSyscallExit, Name: tok.name, PID: tok.pid, UID: tok.uid, Latency: lat}
	if err != nil {
		ev.Err = err.Error()
	}
	tr.Emit(ev)
	tr.histogram("syscall", tok.name).Observe(lat)
}

// LSMDecision records one chain hook evaluation: the final decision, the
// module whose opinion won (empty for base policy), and the hook latency.
func (tr *Tracer) LSMDecision(hook string, pid, uid int, decision, winner string, err error, lat time.Duration) {
	if tr == nil {
		return
	}
	ev := Event{Kind: KindLSMDecision, Name: hook, PID: pid, UID: uid,
		Module: winner, Decision: decision, Latency: lat}
	if err != nil {
		ev.Err = err.Error()
	}
	tr.Emit(ev)
	tr.histogram("lsm", hook).Observe(lat)
}

// NetfilterVerdict records an OUTPUT-chain verdict and bumps ctr, the
// handle the table took for the matching rule (or for the chain policy);
// rule is the matching rule name, empty when the chain's policy applied.
func (tr *Tracer) NetfilterVerdict(ctr *atomic.Uint64, chain, rule, verdict string, senderUID int) {
	if tr == nil {
		return
	}
	tr.Emit(Event{Kind: KindNetfilterVerdict, Name: chain, UID: senderUID,
		Module: rule, Decision: verdict})
	ctr.Add(1)
}

// MonitordSync stamps one monitoring-daemon reparse/push cycle.
func (tr *Tracer) MonitordSync(target string, lat time.Duration, err error) {
	if tr == nil {
		return
	}
	ev := Event{Kind: KindMonitordSync, Name: target, Latency: lat}
	if err != nil {
		ev.Err = err.Error()
	}
	tr.Emit(ev)
	tr.histogram("monitord", target).Observe(lat)
}

// AuthCheck records an authentication-service check. mech is
// AuthPassword, AuthRecency or AuthGroup, whose cell counts ok checks; a
// failed check counts in the Fail cell after it. subject is the user or
// group name.
func (tr *Tracer) AuthCheck(mech Cell, subject string, pid, uid int, ok bool) {
	if tr == nil {
		return
	}
	if !ok {
		mech++
	}
	key := cellKeys[mech]
	tr.Emit(Event{Kind: KindAuthCheck, Name: subject, PID: pid, UID: uid,
		Module: key.Module, Decision: key.Decision})
	tr.cells[mech].Add(1)
}

// FaultInject records one deliberate fault injection: site is the
// registered injection site, action the fault kind ("err", "drop", "dup",
// "torn"), errname the injected errno's symbolic name (empty for non-error
// actions), and hit the site's 1-based hit count at injection time. The
// record is what makes a failing sweep run replayable.
func (tr *Tracer) FaultInject(site, action, errname string, hit uint64) {
	if tr == nil {
		return
	}
	tr.Emit(Event{Kind: KindFaultInject, Name: site, Module: action,
		Err: errname, Msg: fmt.Sprintf("hit=%d", hit)})
	tr.Counter(CounterKey{"fault:" + site, action, "injected"}).Add(1)
}

// Audit emits a legacy audit line as a structured event.
func (tr *Tracer) Audit(msg string) {
	if tr == nil {
		return
	}
	tr.Emit(Event{Kind: KindAudit, Msg: msg})
}

// histKey names one histogram. A struct key, not a "<group>:<name>"
// string, so the per-event lookup builds nothing; Histograms renders the
// string form at read time.
type histKey struct{ group, name string }

// histogram returns the named histogram, creating it on first use.
func (tr *Tracer) histogram(group, name string) *Histogram {
	key := histKey{group, name}
	tr.histMu.RLock()
	h := tr.hists[key]
	tr.histMu.RUnlock()
	if h != nil {
		return h
	}
	tr.histMu.Lock()
	defer tr.histMu.Unlock()
	if h = tr.hists[key]; h == nil {
		h = &Histogram{}
		tr.hists[key] = h
	}
	return h
}

// --- consumer API ---

// Snapshot returns the retained events, oldest first.
func (tr *Tracer) Snapshot() []Event { return tr.ring.Snapshot() }

// SnapshotKind returns the retained events of one kind, oldest first.
func (tr *Tracer) SnapshotKind(k Kind) []Event {
	all := tr.ring.Snapshot()
	out := make([]Event, 0, len(all))
	for _, ev := range all {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// Histogram returns the latency stats for one syscall (zero stats when the
// syscall was never observed).
func (tr *Tracer) Histogram(syscall string) HistStats {
	return tr.histStats(histKey{"syscall", syscall})
}

// HookHistogram returns the latency stats for one LSM hook.
func (tr *Tracer) HookHistogram(hook string) HistStats {
	return tr.histStats(histKey{"lsm", hook})
}

func (tr *Tracer) histStats(key histKey) HistStats {
	tr.histMu.RLock()
	h := tr.hists[key]
	tr.histMu.RUnlock()
	if h == nil {
		return HistStats{}
	}
	return h.Stats()
}

// Histograms returns every histogram's stats keyed by "<group>:<name>".
func (tr *Tracer) Histograms() map[string]HistStats {
	tr.histMu.RLock()
	keys := make([]histKey, 0, len(tr.hists))
	for k := range tr.hists {
		keys = append(keys, k)
	}
	tr.histMu.RUnlock()
	out := make(map[string]HistStats, len(keys))
	for _, k := range keys {
		out[k.group+":"+k.name] = tr.histStats(k)
	}
	return out
}

// Stats summarizes ring occupancy.
type Stats struct {
	Capacity int
	Emitted  uint64
	Dropped  uint64
	// ByKind counts emissions per kind name.
	ByKind map[string]uint64
}

// Stats returns ring occupancy and per-kind emission counts.
func (tr *Tracer) Stats() Stats {
	s := Stats{
		Capacity: tr.ring.Cap(),
		Emitted:  tr.ring.Emitted(),
		Dropped:  tr.ring.Dropped(),
		ByKind:   make(map[string]uint64, numKinds),
	}
	for i := 0; i < numKinds; i++ {
		s.ByKind[Kind(i).String()] = tr.emitted[i].Load()
	}
	return s
}

// EmittedKind returns how many events of one kind were ever emitted.
func (tr *Tracer) EmittedKind(k Kind) uint64 { return tr.emitted[k].Load() }

// --- rendering (the /proc/trace files and the CLI report) ---

// RenderEvents renders the newest max retained events (all when max <= 0)
// as one line per event, oldest first.
func (tr *Tracer) RenderEvents(max int) string {
	evs := tr.Snapshot()
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	var b strings.Builder
	for _, ev := range evs {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderStats renders ring stats, latency histograms, and decision
// counters as the /proc/trace/stats text.
func (tr *Tracer) RenderStats() string {
	var b strings.Builder
	s := tr.Stats()
	fmt.Fprintf(&b, "ring: capacity=%d emitted=%d dropped=%d\n", s.Capacity, s.Emitted, s.Dropped)
	for _, kind := range KindNames() {
		fmt.Fprintf(&b, "emitted[%s]: %d\n", kind, s.ByKind[kind])
	}

	hists := tr.Histograms()
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		b.WriteString("\nlatency histograms (log2 ns buckets):\n")
		for _, k := range keys {
			st := hists[k]
			fmt.Fprintf(&b, "  %-28s %s  %s\n", k, st.String(), st.Sparkline())
		}
	}

	ctrs := tr.Counters()
	if len(ctrs) > 0 {
		b.WriteString("\ndecision counters:\n")
		for _, k := range SortedKeys(ctrs) {
			fmt.Fprintf(&b, "  %-24s %-16s %-14s %d\n", k.Hook, k.Module, k.Decision, ctrs[k])
		}
	}

	b.WriteString("\nfastpath counters:\n")
	for c := range numFast {
		fmt.Fprintf(&b, "  %-24s %d\n", cellKeys[c].Module, tr.cells[c].Load())
	}
	return b.String()
}
