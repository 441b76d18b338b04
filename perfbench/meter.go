package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// Image indexes for the two arms of a paired workload.
const (
	linuxArm   = 0
	protegoArm = 1
)

var armNames = [2]string{"linux", "protego"}

// meter accumulates one measurement phase: every op's outcome and
// latency, per-round rates, and the Go runtime's allocation and GC
// counters around the phase. A round is a short block of ops; rates are
// taken per round and summarized by their median, which stays steady
// where a whole-run mean drifts with GC and host noise.
type meter struct {
	rec *recorder

	attempted int
	failed    int
	mismatch  []string // first few expected-vs-observed mismatches

	opLat      hist // every op (a call or flow on one image, or a pair op)
	armLat     [2]hist
	pairRates  []float64 // per round: pairs per second of op time
	wallRates  []float64 // per round: pairs per wall-clock second
	armRates   [2][]float64
	armRatios  []float64 // per paired round: protego time / linux time
	pairs      int
	opID       int64
	liveHeap   uint64 // heap bytes live after the phase, once collected
	rt0        runtimeSample
	rt1        runtimeSample
	start, end time.Time
}

func newMeter(rec *recorder) *meter {
	m := &meter{rec: rec}
	m.rt0 = readRuntime()
	m.start = time.Now()
	return m
}

// nextOp starts a new op and tags the recorder with its id.
func (m *meter) nextOp() {
	m.opID++
	m.rec.setOp(m.opID)
}

// outcome counts one op's check and returns ok. Callers describe a
// failed check with mismatchf, so a passing op formats nothing.
func (m *meter) outcome(ok bool) bool {
	m.attempted++
	if !ok {
		m.failed++
	}
	return ok
}

// mismatchf keeps the description of the first few failed checks.
func (m *meter) mismatchf(format string, args ...any) {
	if len(m.mismatch) < 5 {
		m.mismatch = append(m.mismatch, fmt.Sprintf(format, args...))
	}
}

// armOp records the latency of one op on one image of a paired round.
func (m *meter) armOp(arm int, d time.Duration) {
	m.opLat.add(d)
	m.armLat[arm].add(d)
}

// pairedRound closes a round of n ops run on each image.
func (m *meter) pairedRound(n int, arm [2]time.Duration) {
	m.pairs += n
	m.pairRates = append(m.pairRates, float64(n)/(arm[0]+arm[1]).Seconds())
	for i := range arm {
		m.armRates[i] = append(m.armRates[i], float64(n)/arm[i].Seconds())
	}
	m.armRatios = append(m.armRatios, ratio(float64(arm[protegoArm]), float64(arm[linuxArm])))
}

// pairOp records one op that drives both images at once (a difffuzz
// trace, a vulngen environment).
func (m *meter) pairOp(d time.Duration) {
	m.opLat.add(d)
}

// round closes a round of n pair ops that took d.
func (m *meter) round(n int, d time.Duration) {
	m.pairs += n
	m.pairRates = append(m.pairRates, float64(n)/d.Seconds())
}

// finish stamps the phase's end and measures the heap the workload's
// state retains: a forced collection with no op in flight makes the live
// byte count exact, where a sample taken during a concurrent GC cycle
// would also count whatever the ops allocated while it was marking.
func (m *meter) finish() {
	m.end = time.Now()
	m.rt1 = readRuntime()
	runtime.GC()
	m.liveHeap = readHeap() - m.roundBytes()
}

// roundBytes is the heap the meter's per-round slices hold. It grows with
// the number of rounds a run fits, so the live heap leaves it out: a
// faster program must not read as a bigger one.
func (m *meter) roundBytes() uint64 {
	n := cap(m.pairRates) + cap(m.wallRates) + cap(m.armRates[0]) + cap(m.armRates[1]) + cap(m.armRatios)
	return uint64(n) * 8
}

// exclude takes the runtime counts from r0 to r1, which belong to work
// between the phase's rounds, out of the phase's counts.
func (m *meter) exclude(r0, r1 runtimeSample) {
	m.rt0.allocs += r1.allocs - r0.allocs
	m.rt0.gcCycles += r1.gcCycles - r0.gcCycles
	m.rt0.pauseNs += r1.pauseNs - r0.pauseNs
}

// ops is the number of ops the phase ran: calls or flows on either image
// for paired workloads, pair ops otherwise.
func (m *meter) ops() int { return int(m.opLat.n) }

// runtimeSample is the Go runtime's cumulative counters at one instant.
type runtimeSample struct {
	allocs   uint64
	gcCycles uint64
	pauseNs  float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	var out runtimeSample
	out.allocs = s[0].Value.Uint64()
	out.gcCycles = s[1].Value.Uint64()
	// The pause histogram has no exact sum; bucket midpoints estimate it.
	h := s[2].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if lo < 0 || hi > 1e9 {
			continue
		}
		out.pauseNs += float64(c) * (lo + hi) / 2 * 1e9
	}
	return out
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// readHeap returns the bytes of heap objects the last GC cycle found live.
func readHeap() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}
