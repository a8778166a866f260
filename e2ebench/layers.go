package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// layerAcc sums what the traced rounds measured.
type layerAcc struct {
	rounds   int
	acked    int                // records acknowledged
	obs      map[string]float64 // obs.Default() deltas
	owners   map[string]float64 // sampled CPU seconds by sampleOwner
	srv      serverCounters
	cpu      float64 // process CPU seconds over the traced rounds
	heapPeak uint64
	gcCPU    float64 // the Go runtime's GC CPU seconds
}

func addDelta(acc, d map[string]float64) map[string]float64 {
	if acc == nil {
		acc = make(map[string]float64, len(d))
	}
	for k, v := range d {
		acc[k] += v
	}
	return acc
}

// stage returns a stage's observation count and busy seconds.
func (a *layerAcc) stage(name string) (count, busy float64) {
	return a.obs["skyaccess_stage_"+name+"_seconds_count"], a.obs["skyaccess_stage_"+name+"_seconds_sum"]
}

// spanTotals counts spans and sums their durations (seconds) by span name.
func (b *bench) spanTotals() (count map[string]int, busy map[string]float64) {
	count, busy = map[string]int{}, map[string]float64{}
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	for _, s := range b.tr.spans {
		if s.Name == "round" {
			continue
		}
		count[s.Name]++
		busy[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
	}
	return count, busy
}

// attribution is each owner's share of the traced rounds' sampled CPU, and
// the share the repository's layers own together.
func (b *bench) attribution() (shares map[string]float64, attributed float64) {
	total := 0.0
	for _, v := range b.layers.owners {
		total += v
	}
	shares = map[string]float64{}
	if total <= 0 {
		return shares, 0
	}
	for k, v := range b.layers.owners {
		shares[k] = v / total
		if strings.HasPrefix(k, "layer ") {
			attributed += v / total
		}
	}
	return shares, attributed
}

// layerMetrics are the per-layer metrics of a traced run: counts and busy
// seconds per traced round, ratios over all traced rounds.
func (b *bench) layerMetrics() map[string]metric {
	a := &b.layers
	n := float64(max(a.rounds, 1))
	out := map[string]metric{}
	per := func(name string, v float64, unit string) { out[name] = metric{v / n, unit} }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	stage := func(prefix, st string, withCount bool) {
		c, busy := a.stage(st)
		if withCount {
			per(prefix+".count", c, "count")
		}
		per(prefix+".busy_s", busy, "s")
	}
	stage("core.epoch", "core_epoch", true)
	for _, p := range []string{"profiles", "cluster", "finalize", "snapshot"} {
		stage("core.epoch_"+p, "core_epoch_"+p, false)
	}
	out["core.distinct_areas"] = metric{float64(a.srv.distinct), "count"}
	rqc, rqb := a.stage("dbscan_region_query")
	pvc, pvb := a.stage("dbscan_pivot_region")
	per("dbscan.region_query.count", rqc+pvc, "count")
	per("dbscan.region_query.busy_s", rqb+pvb, "s")
	per("distance.evals", a.obs["skyaccess_distance_kernel_evals_total"]+a.obs["skyaccess_distance_profile_evals_total"], "count")
	per("distance.memo_hits", a.srv.memoHits, "count")
	per("traffic.class_records", a.srv.classRecords, "count")
	out["traffic.observe_ns"] = metric{observeCost(b.w.allRecords()), "ns"}

	count, busy := b.spanTotals()
	per("serve.ingest.count", float64(count["http /ingest"]), "count")
	per("serve.ingest.busy_s", busy["http /ingest"], "s")
	per("serve.ingest.refused_429", float64(b.tr.refused429.Load()), "count")
	out["serve.queue_depth_max"] = metric{float64(b.tr.queueMax.Load()), "count"}
	stage("wal.append", "wal_append", true)
	stage("wal.fsync", "wal_fsync", true)
	fsyncs, _ := a.stage("wal_fsync")
	out["wal.records_per_fsync"] = metric{ratio(float64(a.acked), fsyncs), "count"}
	stage("sqlparser.fingerprint", "sqlparser_fingerprint", true)
	stage("sqlparser.parse", "sqlparser_parse", true)
	stage("qlog.extract", "qlog_extract", false)
	stage("qlog.cnf", "qlog_cnf", false)
	out["extract.template_hit_ratio"] = metric{ratio(float64(a.srv.tplHits), float64(a.srv.tplHits+a.srv.tplMisses)), "ratio"}

	stage("interestcache.query", "interestcache_query", true)
	stage("interestcache.lookup", "interestcache_lookup", true)
	stage("interestcache.prefetch", "interestcache_prefetch", true)
	out["interestcache.hit_ratio"] = metric{ratio(float64(a.srv.cacheHits), float64(a.srv.cacheHits+a.srv.cacheMisses)), "ratio"}
	per("interestcache.composed_hits", float64(a.srv.composed), "count")
	per("interestcache.stale_misses", float64(a.srv.stale), "count")
	out["interestcache.bytes_resident"] = metric{float64(a.srv.bytesResident), "bytes"}
	out["memdb.exec_ms_p50"] = metric{median(b.execMS), "ms"}
	per("report.write.busy_s", busy["report.Write"], "s")

	out["go.heap_inuse_peak_mb"] = metric{float64(a.heapPeak) / (1 << 20), "MB"}
	out["go.gc_cpu_frac"] = metric{ratio(a.gcCPU, a.cpu), "ratio"}
	out["loadgen.late_p99_ms"] = metric{quantile(b.m.lateMS, 0.99), "ms"}
	_, attributed := b.attribution()
	out["trace.attributed_frac"] = metric{attributed, "ratio"}
	out["trace.overhead_frac"] = metric{b.overhead(), "ratio"}
	return out
}

// overhead compares the timed-phase CPU of traced rounds with untraced
// ones: the cost of the benchmark's own tracing.
func (b *bench) overhead() float64 {
	var on, off []float64
	for i, c := range b.m.cpuS {
		if i < len(b.m.traced) && b.m.traced[i] {
			on = append(on, c)
		} else {
			off = append(off, c)
		}
	}
	if len(on) == 0 || len(off) == 0 || median(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}

// writeTrace writes the spans, the attribution and the per-layer metrics
// of a traced run to the output directory.
func (b *bench) writeTrace(metrics map[string]metric, st stamp) error {
	shares, attributed := b.attribution()
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lines []string
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("%-40s %6.3f", k, shares[k]))
	}
	sampled := 0.0
	for _, v := range b.layers.owners {
		sampled += v
	}
	fmt.Fprintf(os.Stderr, "e2ebench: CPU attribution (share of %.2fs sampled CPU; the process used %.2fs; layers own %.3f):\n  %s\n",
		sampled, b.layers.cpu, attributed, strings.Join(lines, "\n  "))
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"stamp": st, "metrics": metrics, "cpu_shares": shares, "spans": b.tr.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.o.out, fmt.Sprintf("trace-%s-seed%d.json", b.o.workload, b.o.seed)), data, 0o644)
}
