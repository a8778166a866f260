package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qlog"
	"repro/internal/skyserver"
)

// encodeAll is every input a workload sends, as the bytes on the wire.
func encodeAll(t *testing.T, w *workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, part := range [][]batch{mustBatches(t, w.records, w.batch), mustBatches(t, w.trickle, 1)} {
		for _, b := range part {
			buf.Write(b.body)
		}
	}
	for _, q := range w.queries {
		buf.WriteString(q + "\n")
	}
	fmt.Fprintf(&buf, "%d %d %v %v %v", w.clients, w.batch, w.ingestRate, w.queryRate, w.closed)
	return buf.Bytes()
}

func mustBatches(t *testing.T, recs []qlog.Record, size int) []batch {
	t.Helper()
	b, err := encodeBatches(recs, size)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := makeWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeWorkload(name, 7)
		c, _ := makeWorkload(name, 8)
		if !bytes.Equal(encodeAll(t, a), encodeAll(t, b)) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if bytes.Equal(encodeAll(t, a), encodeAll(t, c)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
		for _, q := range a.queries {
			if nestedLoopRE.MatchString(q) {
				t.Errorf("%s: nested-loop statement in the /query stream: %s", name, q)
			}
		}
	}
	if _, err := makeWorkload("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWorkloadShapes(t *testing.T) {
	mf, _ := makeWorkload("mine-fresh", 3)
	br, _ := makeWorkload("bot-replay", 3)
	if s := repeatShare(mf.records); s > 0.1 {
		t.Errorf("mine-fresh repeats %.2f of its text, want nearly all new", s)
	}
	if s := repeatShare(br.records); s < 0.8 {
		t.Errorf("bot-replay repeats %.2f of its text, want most", s)
	}
	if !nestedLoopRE.MatchString(nestedProbe) {
		t.Error("probe is not a nested-loop shape")
	}
	// Runs with different seeds are compared, so no seed may pick a log
	// that does much more work: bot-replay's bytes stay near their median.
	var sizes []float64
	for seed := int64(1); seed <= 8; seed++ {
		w, _ := makeWorkload("bot-replay", seed)
		n := 0
		for _, r := range w.records {
			n += len(r.SQL)
		}
		sizes = append(sizes, float64(n))
	}
	// query-serve's trickle must trip the epoch trigger twice per phase.
	qs, _ := makeWorkload("query-serve", 3)
	db := buildDB()
	pre, _ := batchMine(qs.records, db)
	all, _ := batchMine(qs.allRecords(), db)
	if n := all.DistinctAreas - pre.DistinctAreas; n < 2*cfgEpochAreas+50 {
		t.Errorf("query-serve trickle adds %d new areas, want at least %d for two epochs", n, 2*cfgEpochAreas+50)
	}
	med := median(sizes)
	for i, n := range sizes {
		if n < 0.92*med || n > 1.08*med {
			t.Errorf("bot-replay seed %d: %.0f bytes of SQL, median over seeds %.0f", i+1, n, med)
		}
	}
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {2000, 0.995}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if q := quantile(v, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(v, 0.25); q != 2 {
		t.Errorf("q25 = %v", q)
	}
	if q := quantile(v, 1); q != 5 {
		t.Errorf("max = %v", q)
	}
	if v[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestSpeedScaling(t *testing.T) {
	// On a host twice as slow as the reference, timings read half and
	// rates twice what was measured; memory is left as measured.
	b := &bench{}
	b.m.hostWorkS = []float64{2 * refHostWorkS, 3 * refHostWorkS, 1 * refHostWorkS}
	b.m.setupS, b.m.ackMS, b.m.ingestRPS, b.m.rssMB = []float64{1}, []float64{4, 8}, []float64{100}, []float64{50}
	if f := b.speedFactor(); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("speedFactor = %v, want 0.5", f)
	}
	gated, ungated := b.endToEnd(), b.ungated()
	for name, want := range map[string]float64{"setup_s": 0.5, "ingest_ack_p50_ms": 3, "peak_rss_mb": 50} {
		if v := gated[name].Value; math.Abs(v-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if v := ungated["ingest_rps"].Value; math.Abs(v-200) > 1e-9 {
		t.Errorf("ungated ingest_rps = %v, want 200", v)
	}
	for _, k := range ungatedNames {
		if _, ok := gated[k]; ok {
			t.Errorf("%s is both gated and ungated", k)
		}
	}
	if v := b.asMeasured()["setup_s"].Value; v != 1 {
		t.Errorf("setup_s as measured = %v, want 1", v)
	}
	b.calibrate(2)
	if n := len(b.m.hostWorkS); n != 5 || b.m.hostWorkS[4] <= 0 {
		t.Errorf("calibrate(2) kept %v", b.m.hostWorkS)
	}
}

func TestOpenLoopTimedFromDue(t *testing.T) {
	const interval = 20 * time.Millisecond
	// The first request stalls 3 intervals; the two behind it were due
	// while it ran and must carry that wait.
	lat, late, errs := openLoop(time.Now(), 3, interval, func(i int) error {
		if i == 0 {
			time.Sleep(3 * interval)
		}
		return nil
	})
	if errs != 0 || len(lat) != 3 {
		t.Fatalf("lat %v errs %d", lat, errs)
	}
	if lat[1] < ms(2*interval)*0.9 || late[1] < ms(2*interval)*0.9 {
		t.Errorf("request 1: latency %.1fms late %.1fms, want both >= ~%.0fms", lat[1], late[1], ms(2*interval))
	}
	if lat[2] < ms(interval)*0.9 {
		t.Errorf("request 2: latency %.1fms, want >= ~%.0fms", lat[2], ms(interval))
	}
	// A closed loop times each request from its own send.
	lat, _, _ = openLoop(time.Now(), 2, 0, func(i int) error {
		if i == 0 {
			time.Sleep(3 * interval)
		}
		return nil
	})
	if lat[1] > ms(interval) {
		t.Errorf("closed loop: request 1 latency %.1fms includes its predecessor", lat[1])
	}
	// A failed request has no latency sample and is counted.
	lat, _, errs = openLoop(time.Now(), 2, 0, func(i int) error {
		if i == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if errs != 1 || len(lat) != 1 {
		t.Errorf("failed request: %d latencies, %d errors", len(lat), errs)
	}
}

// ingestServer answers /ingest like skyserved: each POST accepts up to
// perPost records, answering 429 with the accepted count while more remain;
// with fail set it answers 500.
func ingestServer(perPost int, fail bool, posts *atomic.Int64) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		var body bytes.Buffer
		body.ReadFrom(r.Body)
		n := strings.Count(body.String(), "\n")
		switch {
		case fail:
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]any{"accepted": 0, "error": "disk"})
		case n > perPost:
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"accepted": perPost, "error": "queue full"})
		default:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]any{"accepted": n})
		}
	}))
}

func TestFailureAccounting(t *testing.T) {
	w, _ := makeWorkload("mine-fresh", 1)
	batches := mustBatches(t, w.records[:40], 10)

	// 429s that are re-sent are not failures; each batch is one operation.
	var posts atomic.Int64
	srv := ingestServer(4, false, &posts)
	defer srv.Close()
	c := newClient()
	c.retarget(srv.URL)
	var tl tally
	res := closedLoop([]*client{c}, batches, &tl)
	if tl.attempted.Load() != 4 || tl.failed.Load() != 0 || res.acked != 40 {
		t.Errorf("429 path: attempted %d failed %d acked %d", tl.attempted.Load(), tl.failed.Load(), res.acked)
	}
	if res.refused != 8 || posts.Load() != 12 || len(res.ackMS) != 4 {
		t.Errorf("429 path: refused %d posts %d samples %d, want 8, 12, 4", res.refused, posts.Load(), len(res.ackMS))
	}

	// A 5xx is a failure and yields no latency sample.
	bad := ingestServer(100, true, &posts)
	defer bad.Close()
	c.retarget(bad.URL)
	var tl2 tally
	res = closedLoop([]*client{c}, batches[:2], &tl2)
	if tl2.attempted.Load() != 2 || tl2.failed.Load() != 2 || res.acked != 0 || len(res.ackMS) != 0 {
		t.Errorf("5xx path: attempted %d failed %d acked %d", tl2.attempted.Load(), tl2.failed.Load(), res.acked)
	}

	// A wrong answer fails the operation and makes the run incorrect.
	b := &bench{}
	b.t.op(nil)
	b.wrong(errors.New("report differs"))
	if b.t.attempted.Load() != 1 || b.t.failed.Load() != 1 || b.mismatches.Load() != 1 {
		t.Errorf("wrong answer: attempted %d failed %d mismatches %d", b.t.attempted.Load(), b.t.failed.Load(), b.mismatches.Load())
	}
}

func TestCheckQuery(t *testing.T) {
	db := buildDB()
	stmts := []string{"SELECT TOP 3 objid, ra FROM PhotoObjAll WHERE ra > 100", "DROP TABLE PhotoObjAll"}
	ans, _, err := oracle(db, stmts)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := ans[stmts[0]], ans[stmts[1]]
	if good.status != http.StatusOK || bad.status != http.StatusBadRequest {
		t.Fatalf("oracle statuses %d %d", good.status, bad.status)
	}
	// The server's reply carries cache details and indentation; only the
	// rows part is compared.
	var qb queryBody
	json.Unmarshal(good.body, &qb)
	reply, _ := json.MarshalIndent(map[string]any{"columns": qb.Columns, "rows": qb.Rows, "row_count": qb.RowCount,
		"cache": map[string]any{"hit": true, "generation": 3}}, "", "  ")
	if err := checkQuery(good, http.StatusOK, reply); err != nil {
		t.Errorf("matching reply rejected: %v", err)
	}
	if err := checkQuery(bad, http.StatusBadRequest, []byte(`{"error":"x"}`)); err != nil {
		t.Errorf("400 the direct executor also gives rejected: %v", err)
	}
	if checkQuery(good, http.StatusBadRequest, nil) == nil {
		t.Error("400 for a statement direct execution answers accepted")
	}
	qb.Rows[0][0] = 12345.0
	wrongRows, _ := json.Marshal(qb)
	if checkQuery(good, http.StatusOK, wrongRows) == nil {
		t.Error("reply with different rows accepted")
	}
}

func TestQueryKind(t *testing.T) {
	hit := http.Header{"X-Cache": {"HIT"}}
	miss := http.Header{"X-Cache": {"MISS"}}
	for _, c := range []struct {
		h    http.Header
		body string
		want int
	}{
		{hit, `{}`, kindHit},
		{miss, "{\n  \"cache\": {\n    \"reason\": \"no-region\"\n  }\n}", kindMiss},
		{miss, "{\n  \"cache\": {\n    \"reason\": \"inexact\"\n  }\n}", kindUnsafe},
		{miss, "{\n  \"cache\": {\n    \"reason\": \"parse\"\n  }\n}", kindUnsafe},
	} {
		if got := queryKind(c.h, []byte(c.body)); got != c.want {
			t.Errorf("queryKind(%v, %s) = %d, want %d", c.h, c.body, got, c.want)
		}
	}
}

// smallBench sets up a run over a 400-record Table-1 log and 30 /query
// statements against the in-process server, output in a temporary
// directory.
func smallBench(t *testing.T) *bench {
	t.Helper()
	w := &workload{
		name:    "small",
		records: toRecords(skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 400, Seed: 5}), 0, 0),
		clients: 1, batch: 10,
		queries: queryStatements(5, 30),
		closed:  true,
	}
	b, err := newBench(options{workload: w.name, seed: 5, seconds: 1, trace: 1, out: t.TempDir()}, w)
	if err != nil {
		t.Fatal(err)
	}
	b.useInproc()
	return b
}

func TestTracedRound(t *testing.T) {
	b := smallBench(t)
	if err := b.round(0, true); err != nil {
		t.Fatal(err)
	}
	if !b.correct() {
		t.Fatalf("round incorrect: %v", b.t.firstErr)
	}
	m := b.layerMetrics()
	if f := m["trace.attributed_frac"].Value; f <= 0 || f > 1 {
		t.Errorf("trace.attributed_frac = %v, want a share in (0,1]", f)
	}
	shares, _ := b.attribution()
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("CPU shares sum to %v: %v", sum, shares)
	}
	if m["core.epoch.count"].Value < 1 || m["serve.ingest.count"].Value < 1 {
		t.Errorf("epochs %v, ingest requests %v", m["core.epoch.count"].Value, m["serve.ingest.count"].Value)
	}
	count, _ := b.spanTotals()
	for _, name := range []string{"http /ingest", "http /query", "serve.NewServer", "serve.Flush", "report.Write"} {
		if count[name] == 0 {
			t.Errorf("no %q span recorded", name)
		}
	}
	var out bytes.Buffer
	if code := b.conclude(&out); code != 0 {
		t.Errorf("exit code %d, output %s", code, out.String())
	}
	if _, err := os.Stat(filepath.Join(b.o.out, "trace-small-seed5.json")); err != nil {
		t.Error(err)
	}
}

// reportFails is the in-process server with a /report that answers 500.
type reportFails struct {
	*inprocServer
	broken *client
}

func (s reportFails) report(*client) ([]byte, error) { return (&childServer{}).report(s.broken) }

func TestFailedReportFailsRun(t *testing.T) {
	b := smallBench(t)
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "internal error", http.StatusInternalServerError)
	}))
	defer down.Close()
	broken := newClient()
	broken.retarget(down.URL)
	b.srv = reportFails{b.inproc, broken}
	if err := b.round(0, false); err != nil {
		t.Fatal(err)
	}
	if b.mismatches.Load() != 0 || b.t.failed.Load() != 2 {
		t.Errorf("mismatches %d failed %d, want 0 and 2 (report before and after the crash)", b.mismatches.Load(), b.t.failed.Load())
	}
	if code := b.conclude(io.Discard); code != 1 {
		t.Errorf("exit code %d with a failing /report, want 1", code)
	}
}

func TestSampleOwner(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/dbscan.(*Index).query", "repro/internal/core.(*Miner).Epoch", "main.main"}, "layer dbscan"},
		{[]string{"runtime.futex", "main.closedLoop.func1"}, "other e2ebench"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "other gc"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other net/http"},
		{nil, "other unknown"},
	} {
		if got := sampleOwner(c.frames); got != c.want {
			t.Errorf("sampleOwner(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestCPUByOwner(t *testing.T) {
	db := buildDB()
	recs := toRecords(skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 1500, Seed: 2}), 0, 0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		batchMine(recs, db)
	}
	pprof.StopCPUProfile()
	owners, err := cpuByOwner(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total, layers := 0.0, 0.0
	for k, v := range owners {
		total += v
		if strings.HasPrefix(k, "layer ") {
			layers += v
		}
	}
	// Mining runs in repro/internal, so layers own most samples; under the
	// race detector many samples stop in its runtime calls.
	if total < 0.2 || layers < total/5 {
		t.Errorf("sampled %.2fs, layers %.2fs: %v", total, layers, owners)
	}
	if _, err := cpuByOwner([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}
