package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stamp identifies the host, the program and the inputs of one result, and
// records the generated workload's properties.
type stamp struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      int      `json:"seconds"`
	Trace        int      `json:"trace"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	CPUModel     string   `json:"cpu_model"`
	GoVersion    string   `json:"go_version"`
	GitCommit    string   `json:"git_commit"`
	SourceSHA256 string   `json:"source_sha256"`
	ServerFlags  []string `json:"skyserved_flags"`
	// HostStealFrac is the share of the host's CPU time the hypervisor
	// gave to other guests during the run: high values explain noise.
	HostStealFrac float64 `json:"host_steal_frac"`
	// SpeedFactor is the factor every end-to-end timing was scaled by
	// (calib.go): below 1, the host ran slower than the reference host.
	// HostWorkS are the hostWork times it is computed from, and
	// AsMeasured the end-to-end figures before scaling.
	SpeedFactor float64           `json:"speed_factor"`
	HostWorkS   []float64         `json:"host_work_s"`
	AsMeasured  map[string]metric `json:"as_measured,omitempty"`
	// Ungated are end-to-end figures the run measures but BENCHMARK.json
	// does not gate on; README.md says why for each.
	Ungated map[string]metric `json:"ungated,omitempty"`

	Sizes struct {
		Records       int     `json:"records"`
		Batch         int     `json:"batch_records"`
		Clients       int     `json:"clients"`
		Trickle       int     `json:"trickle_records"`
		TrickleRate   float64 `json:"trickle_per_s"`
		QueryPool     int     `json:"query_statements"`
		Queries       int     `json:"queries_per_round"`
		QueryRate     float64 `json:"queries_per_s"`
		Rounds        int     `json:"rounds"`
		AckSamples    int     `json:"ingest_ack_samples"`
		QuerySamples  int     `json:"query_samples"`
		QueryTailRank float64 `json:"query_highest_supported_percentile"`
	} `json:"sizes"`

	Properties struct {
		RepeatShare   float64 `json:"repeat_text_share"`
		DistinctAreas int     `json:"distinct_areas"`
		// ClassShares is the share of records the traffic classifier puts
		// in each class, replaying the log in order.
		ClassShares map[string]float64 `json:"classifier_class_shares"`
		HitShare    float64            `json:"query_hit_share"`
		MissShare   float64            `json:"query_miss_share"`
		UnsafeShare float64            `json:"query_unsafe_share"`
	} `json:"properties"`
}

func (b *bench) stamp() stamp {
	s := stamp{
		Workload: b.o.workload, Seed: b.o.seed, Seconds: b.o.seconds, Trace: b.o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), GitCommit: gitCommit(), SourceSHA256: sourceHash(),
		ServerFlags: serverFlags("127.0.0.1:PORT", "WALDIR"),
	}
	if st := hostSteal(); st[1] > b.steal0[1] {
		s.HostStealFrac = (st[0] - b.steal0[0]) / (st[1] - b.steal0[1])
	}
	s.SpeedFactor, s.HostWorkS = b.speedFactor(), b.m.hostWorkS
	if b.o.trace == 0 {
		s.AsMeasured, s.Ungated = b.asMeasured(), b.ungated()
	}
	w := b.w
	s.Sizes.Records, s.Sizes.Batch, s.Sizes.Clients = len(w.records), w.batch, w.clients
	s.Sizes.Trickle, s.Sizes.TrickleRate = len(w.trickle), w.ingestRate
	s.Sizes.QueryPool, s.Sizes.Queries, s.Sizes.QueryRate = len(w.queries), len(w.queries), w.queryRate
	if w.closed {
		s.Sizes.Queries = sampleQueries
	}
	s.Sizes.Rounds = len(b.m.traced)
	s.Sizes.AckSamples, s.Sizes.QuerySamples = len(b.m.ackMS), len(b.m.queryMS)
	s.Sizes.QueryTailRank = highestSupported(len(b.m.queryMS))
	s.Properties.RepeatShare = repeatShare(w.allRecords())
	s.Properties.DistinctAreas = b.distinct
	s.Properties.ClassShares = classShares(w.allRecords())
	total := float64(b.m.kinds[kindHit] + b.m.kinds[kindMiss] + b.m.kinds[kindUnsafe])
	if total > 0 {
		s.Properties.HitShare = float64(b.m.kinds[kindHit]) / total
		s.Properties.MissShare = float64(b.m.kinds[kindMiss]) / total
		s.Properties.UnsafeShare = float64(b.m.kinds[kindUnsafe]) / total
	}
	return s
}

// hostSteal reads the steal and total jiffies of the host's CPUs.
func hostSteal() [2]float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var steal, total float64
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i, f := range strings.Fields(line)[1:] {
		if i == 8 {
			break
		}
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return [2]float64{steal, total}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is the checkout's commit, or "none" outside a git work tree;
// source_sha256 identifies the program either way.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	// Look for a repository in the working directory only, and read no
	// configuration from outside it.
	wd, _ := os.Getwd()
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd),
		"GIT_CONFIG_NOSYSTEM=1", "GIT_CONFIG_GLOBAL=/dev/null")
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes go.mod and every Go file skyserved is built from
// (cmd/ and internal/), in path order.
func sourceHash() string {
	var paths []string
	for _, root := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil // an unreadable subtree only leaves files out of the hash
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, paths...) {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
