package main

import (
	"fmt"
	"time"
)

// layerReport collects the traced run's per-layer metrics.
type layerReport struct {
	vals  map[string]float64
	known map[string]string // metric name -> unit

	// plain holds the traced run's untraced rounds, traced its traced
	// rounds; delta is a workload counter's growth over both.
	plain, traced *meter
	delta         func(key string) float64

	// selfBase is the first op id whose spans count towards per-layer
	// self time: measured ops by default, the decomposition probes on
	// workloads whose measured op is one opaque call.
	selfBase int64
}

func newLayerReport(plain, traced *meter, c0, c1 map[string]uint64) *layerReport {
	p := &layerReport{vals: map[string]float64{}, known: map[string]string{},
		plain: plain, traced: traced, delta: counterDelta(c0, c1), selfBase: 1}
	for _, d := range perLayer() {
		p.known[d.Name] = d.Unit
	}
	return p
}

// set records one metric; an undeclared name is a bug in the benchmark.
func (p *layerReport) set(name string, v float64) {
	if _, ok := p.known[name]; !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	p.vals[name] = v
}

// fillMeters derives the metrics every workload shares from the two
// halves: per-image rates and latencies (paired workloads only), the
// error ratio, the tracing overhead, counter ratios and Go runtime costs.
func (p *layerReport) fillMeters() {
	plain := p.plain
	for i, img := range armNames {
		if len(plain.armRates[i]) > 0 {
			p.set(img+".ops_per_s", median(plain.armRates[i]))
			p.set(img+".op_us_p50", plain.armLat[i].quantile(0.5)/1e3)
			p.set(img+".op_us_p99", plain.armLat[i].quantile(0.99)/1e3)
		}
	}
	if len(plain.armRatios) > 0 {
		p.set("core.overhead_ratio", median(plain.armRatios))
	}
	p.set("error_ratio", ratio(float64(plain.failed+p.traced.failed), float64(plain.attempted+p.traced.attempted)))
	// Span recording sits outside each op's timed interval, so the
	// overhead shows in wall-clock rates, not in op-time rates.
	p.set("trace.overhead_pairs_per_s", median(plain.wallRates)-median(p.traced.wallRates))
	// Both meters span the same interval, so counters and runtime costs
	// are per op of either kind.
	ops := float64(plain.ops() + p.traced.ops())
	p.setCounterRatios(p.delta, ops)
	p.set("go.gc_cycles_per_op", ratio(float64(plain.rt1.gcCycles-plain.rt0.gcCycles), ops))
	p.set("go.gc_pause_ns_per_op", ratio(plain.rt1.pauseNs-plain.rt0.pauseNs, ops))
}

// setCounterRatios sets the ratios derived from machine counters, given
// each counter's growth over ops operations.
func (p *layerReport) setCounterRatios(d func(string) float64, ops float64) {
	p.set("vfs.dcache_hit_ratio", ratio(d("dcache.hit"), d("dcache.hit")+d("dcache.miss")))
	p.set("vfs.dcache_invalidations_per_op", ratio(d("dcache.invalidate"), ops))
	p.set("core.mountidx_hit_ratio", ratio(d("mountidx.hit"), d("core.mount_checks")))
	p.set("lsm.syscall_allow_fastpath", ratio(d("lsm.syscall.allow"), ops))
	p.set("netfilter.index_fastpath_ratio", ratio(d("nfidx.fastpath"), d("netfilter.verdicts")))
	p.set("trace.events_per_op", ratio(d("trace.emitted"), ops))
	p.set("trace.dropped_per_op", ratio(d("trace.dropped"), ops))
	p.set("monitord.syncs_per_op", ratio(d("monitord.syncs"), ops))
}

// fillSpans sets the p50 of every span name that is a declared metric
// (with a .ns_p50, .us_p50 or .ms_p50 suffix) and each layer's self time
// per op.
func (p *layerReport) fillSpans(rec *recorder) {
	sum := rec.summarize()
	for name := range sum.durations {
		for suffix, div := range map[string]float64{".ns_p50": 1, ".us_p50": 1e3, ".ms_p50": 1e6} {
			if _, ok := p.known[name+suffix]; ok {
				p.set(name+suffix, sum.p50ns(name)/div)
			}
		}
	}
	self, ops := rec.selfPerLayer(p.selfBase)
	for _, l := range layers {
		p.set("self."+l+".us_per_op", ratio(float64(self[l]), float64(ops))/1e3)
	}
}

// metrics renders every declared per-layer metric, 0 where unset.
func (p *layerReport) metrics() map[string]metricValue {
	out := make(map[string]metricValue, len(p.known))
	for name, unit := range p.known {
		out[name] = metricValue{Value: p.vals[name], Unit: unit}
	}
	return out
}

// selfPerLayer sums the self time of every span from op selfBase on, by
// layer, and returns it with the number of ops those spans belong to.
func (r *recorder) selfPerLayer(selfBase int64) (map[string]time.Duration, int) {
	out := map[string]time.Duration{}
	if r == nil {
		return out, 0
	}
	self := selfTimes(r.spans)
	ops := map[int64]bool{}
	for i, s := range r.spans {
		if s.Op < selfBase {
			continue
		}
		ops[s.Op] = true
		out[s.Layer] += time.Duration(self[i])
	}
	return out, len(ops)
}

// timeN runs fn n times, each as a span of the given layer and name
// outside any measured op, so direct layer probes never count towards
// self time.
func timeN(rec *recorder, layer, name string, n int, fn func() error) error {
	rec.setOp(0)
	for i := 0; i < n; i++ {
		id := rec.begin(layer, name)
		err := fn()
		rec.end(id)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
	}
	return nil
}

// counterDelta returns the growth of every counter from c0 to c1.
func counterDelta(c0, c1 map[string]uint64) func(string) float64 {
	return func(key string) float64 { return float64(c1[key] - c0[key]) }
}
