// Command perfbench is the repository's benchmark. It runs one named
// workload against the baseline and Protego images for a fixed time,
// checks every op's outcome against an oracle, and prints the workload's
// metrics by name with their units. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload syscall_mix --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --spec > BENCHMARK.json
//
// --trace 0 reports the end-to-end metrics from an untraced run. --trace 1
// reports the per-layer metrics: an untraced half for the per-image rates,
// a traced half that records spans around every call the benchmark makes
// into a module, and probe calls into each layer's public functions. The
// spans are written to .bench_build/spans/. README.md has the details.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// fixture is one workload's set-up state.
type fixture interface {
	// round runs one round of ops, reporting each to m.
	round(m *meter) error
	// counters returns the deterministic counters the program exposes,
	// summed over the machines the workload drives.
	counters() map[string]uint64
	// probe runs the traced-only calls into each layer and fills the
	// per-layer metrics the workload owns.
	probe(rec *recorder, pl *layerReport) error
}

// workload is one named input set.
type workload struct {
	name  string
	why   string
	setup func(seed int64) (fixture, error)
}

var workloads = []workload{
	{"syscall_mix", "Table-5 syscalls, mediated and not, as root and as a user on both images: kernel entry, vfs and lsm cost",
		setupMix},
	{"utility_flows", "Figure-1 user flows (mount, umount, sudo, ping, passwd) through the real utilities: the latency a user waits for",
		setupFlows},
	{"difffuzz", "seeded differential traces on golden-clone pairs with per-step fingerprints: machine fingerprint cost",
		setupDiffFuzz},
	{"vulngen", "generated misconfigured environments replaying the CVE corpus: snapshot clone, copy-up and exploit cost",
		setupVulngen},
}

// Set-up runs setupWarm untimed times before anything is measured (the
// first set-ups in a fresh process are slower: cold caches, heap growth);
// the last fixture is the one measured. The untraced run then times a
// fresh set-up between rounds every setupEvery, and setup_s is the median
// of those. One set-up takes 1-6 ms, and on a shared host its time is
// bimodal, with a share of slow samples that changes from moment to
// moment: set-ups spread over the run see the same host as its rounds,
// where the median of a burst of them sees only the burst (README.md).
const (
	setupWarm  = 3
	setupEvery = 100 * time.Millisecond
)

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", devSeed, "workload seed")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *spec {
		b, err := specJSON()
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(b)
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupWarmed runs set-up setupWarm times and returns the last fixture.
func setupWarmed(w workload, seed int64) (fixture, error) {
	var fix fixture
	for i := 0; i < setupWarm; i++ {
		fix = nil // the next set-up does not pay for this one's garbage
		runtime.GC()
		f, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		fix = f
	}
	return fix, nil
}

// timeSetup times one fresh set-up of w between two rounds of m's phase
// and throws the fixture away. It starts and ends on a collected heap, so
// the rounds neither pay for its garbage nor it for theirs, and it takes
// its own allocations and collections out of m's runtime counters.
func timeSetup(w workload, seed int64, m *meter) (float64, error) {
	r0 := readRuntime()
	runtime.GC()
	start := time.Now()
	_, err := w.setup(seed)
	secs := time.Since(start).Seconds()
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	m.exclude(r0, readRuntime())
	return secs, nil
}

// measure runs untraced rounds until d has elapsed, with a timed set-up
// every setupEvery between them, and returns the set-up times too.
func measure(w workload, seed int64, fix fixture, d time.Duration) (*meter, []float64, error) {
	m := newMeter(nil)
	var setups []float64
	next := time.Now()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if !time.Now().Before(next) {
			secs, err := timeSetup(w, seed, m)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, secs)
			next = time.Now().Add(setupEvery)
		}
		if err := timedRound(fix, m); err != nil {
			return nil, nil, err
		}
	}
	m.finish()
	runtime.KeepAlive(fix) // the fixture's state counts in the live heap
	return m, setups, nil
}

// measureTraced interleaves untraced and traced rounds in blocks of
// P T T P, so both meters see the same machine state and host noise and
// each keeps the alternation of which image goes first. Once the
// recorder is down to probeReserve spans of room, the remaining time runs
// untraced rounds only.
func measureTraced(fix fixture, d time.Duration, rec *recorder) (plain, traced *meter, err error) {
	plain, traced = newMeter(nil), newMeter(rec)
	for i, deadline := 0, time.Now().Add(d); time.Now().Before(deadline); i++ {
		m := plain
		if (i%4 == 1 || i%4 == 2) && len(rec.spans) < rec.limit-probeReserve {
			m = traced
		}
		if err := timedRound(fix, m); err != nil {
			return nil, nil, err
		}
	}
	plain.finish()
	traced.finish()
	runtime.KeepAlive(fix)
	return plain, traced, nil
}

// timedRound runs one round and records its wall-clock pair rate,
// benchmark bookkeeping and span recording included.
func timedRound(fix fixture, m *meter) error {
	pairs := m.pairs
	start := time.Now()
	if err := fix.round(m); err != nil {
		return err
	}
	m.wallRates = append(m.wallRates, float64(m.pairs-pairs)/time.Since(start).Seconds())
	return nil
}

// warmup runs a few rounds outside any measurement so lazy set-up inside
// the program (golden snapshots, compiled indexes) is done before timing.
func warmup(fix fixture) error {
	m := newMeter(nil)
	for i := 0; i < 3; i++ {
		if err := fix.round(m); err != nil {
			return err
		}
	}
	if m.failed > 0 {
		return fmt.Errorf("warm-up mismatch: %v", m.mismatch)
	}
	return nil
}

// spanLimit bounds the traced run's in-memory span buffer; the measured
// ops leave probeReserve of it for the layer probes that follow them.
const (
	spanLimit    = 300000
	probeReserve = 80000
)

func run(w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	fix, err := setupWarmed(w, seed)
	if err != nil {
		return nil, err
	}
	if err := warmup(fix); err != nil {
		return nil, err
	}
	if !traced {
		m, setups, err := measure(w, seed, fix, d)
		if err != nil {
			return nil, err
		}
		reportMismatches(m)
		fmt.Printf("setup: median of %d set-ups\n", len(setups))
		return &result{
			Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
			Metrics: endToEndMetrics(m, median(setups)),
		}, nil
	}

	c0 := fix.counters()
	rec := newRecorder(spanLimit)
	plain, tracedM, err := measureTraced(fix, d, rec)
	if err != nil {
		return nil, err
	}
	c1 := fix.counters()
	pl := newLayerReport(plain, tracedM, c0, c1)
	pl.fillMeters()
	if err := fix.probe(rec, pl); err != nil {
		return nil, err
	}
	pl.fillSpans(rec)
	reportMismatches(plain)
	reportMismatches(tracedM)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d recorded, %d dropped, written to %s\n", len(rec.spans), rec.dropped, path)
	for i, img := range armNames {
		if n := plain.armLat[i].n; n > 0 {
			fmt.Printf("%s op latency: %d untraced samples (highest percentile with >=10 beyond: p%g)\n",
				img, n, tailQuantile(n)*100)
		}
	}
	failed := plain.failed + tracedM.failed
	return &result{
		Correct: failed == 0, Attempted: plain.attempted + tracedM.attempted, Failed: failed,
		Metrics: pl.metrics(),
	}, nil
}

func reportMismatches(m *meter) {
	for _, s := range m.mismatch {
		fmt.Fprintf(os.Stderr, "mismatch: %s\n", s)
	}
}

// endToEndMetrics summarizes the untraced run.
func endToEndMetrics(m *meter, setupS float64) map[string]metricValue {
	ops := float64(m.ops())
	vals := map[string]float64{
		"setup_s":       setupS,
		"pairs_per_s":   median(m.pairRates),
		"op_us_p50":     m.opLat.quantile(0.5) / 1e3,
		"op_us_p90":     m.opLat.quantile(0.9) / 1e3,
		"allocs_per_op": ratio(float64(m.rt1.allocs-m.rt0.allocs), ops),
		"live_heap_mb":  float64(m.liveHeap) / (1 << 20),
	}
	fmt.Printf("ops: %d in %d rounds (%d pairs), %.1fs; p90 from %d samples (highest percentile with >=10 beyond: p%g)\n",
		m.ops(), len(m.pairRates), m.pairs, m.end.Sub(m.start).Seconds(), m.opLat.n, tailQuantile(m.opLat.n)*100)
	out := make(map[string]metricValue, len(endToEnd))
	for _, def := range endToEnd {
		out[def.Name] = metricValue{Value: vals[def.Name], Unit: def.Unit}
	}
	return out
}

// printResult prints every metric as a line, then the JSON result line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, v.Value, v.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}
