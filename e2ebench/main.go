// Command e2ebench is the repository's end-to-end benchmark of skyserved.
// One invocation runs one workload with one seed against the skyserved
// binary, driven over loopback HTTP, checks every output against the batch
// miner and direct database execution, and prints the metrics as the last
// line of standard output. With --trace 1 it drives an in-process
// serve.Server with the same configuration instead and prints per-layer
// metrics. run.sh builds both binaries and runs it; README.md describes the
// workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/memdb"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
	"repro/internal/traffic"
)

const (
	// minRounds a run makes, whatever --seconds and the host's speed, so
	// medians have several samples and each tail percentile enough.
	minRounds = 4
	// sampleEvery: one /query reply in this many has its rows compared with
	// direct execution; every reply's status is compared.
	sampleEvery = 3
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: mine-fresh, bot-replay or query-serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 50, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced in-process run printing per-layer metrics")
	flag.StringVar(&o.server, "server", ".bench_build/bin/skyserved", "skyserved binary")
	flag.StringVar(&o.out, "out", ".bench_build/e2ebench", "directory for WALs, server logs, results and spans")
	flag.Parse()
	os.Exit(run(o))
}

// measurements are the raw samples of one run.
type measurements struct {
	setupS, ingestRPS, reportLagS, recoverS, rssMB []float64
	toReportS                                      []float64
	nestedMS, mineS                                []float64
	ackMS, queryMS, lateMS                         []float64
	// cpuS is the server's CPU time over each round's timed phase, from
	// the first ingest to the verified report; traced marks the rounds that
	// ran with tracing on.
	cpuS   []float64
	traced []bool
	kinds  [3]int
	// hostWorkS are the calibrations timed between rounds (calib.go).
	hostWorkS []float64
}

type bench struct {
	o        options
	w        *workload
	srv      server
	inproc   *inprocServer // traced runs only
	tr       *tracer
	clients  []*client // clients[0] also makes the control calls
	batches  []batch
	trickle  []batch
	ref      []byte
	distinct int // distinct areas of the reference
	db       *memdb.DB
	answers  map[string]answer
	execMS   []float64 // direct execution time of each distinct /query statement
	runDir   string
	steal0   [2]float64 // hostSteal() at the start
	// hostWorkSum keeps hostWork's results, so its work is not optimised
	// away.
	hostWorkSum float64
	// roundAcked is the records the current round saw acknowledged.
	roundAcked int
	// queryNext is where the next closed-loop round's queries start.
	queryNext int

	t          tally
	mismatches atomic.Int64
	mu         sync.Mutex // guards m while open loops run
	m          measurements
	layers     layerAcc
}

func run(o options) int {
	w, err := makeWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	b, err := newBench(o, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	defer os.RemoveAll(b.runDir)

	if o.trace == 1 {
		b.useInproc()
	} else {
		logf, err := os.Create(filepath.Join(b.runDir, "skyserved.log"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
		defer logf.Close()
		child := &childServer{bin: o.server, log: logf}
		b.srv = child
		// An interrupted benchmark still stops its server and waits for it.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			child.crash()
			os.RemoveAll(b.runDir)
			os.Exit(1)
		}()
	}

	if err := b.rounds(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	return b.conclude(os.Stdout)
}

// newBench generates everything a run compares against: the batch miner's
// reference report, direct execution's /query answers and the encoded
// /ingest bodies. The caller picks the server.
func newBench(o options, w *workload) (*bench, error) {
	b := &bench{o: o, w: w, tr: newTracer(), steal0: hostSteal()}
	b.runDir = filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d-%d", o.workload, o.seed, o.trace, os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	b.db = buildDB()
	res, _ := batchMine(w.allRecords(), b.db)
	b.distinct = res.DistinctAreas
	var err error
	if b.ref, err = reference(res, b.db); err != nil {
		return nil, fmt.Errorf("reference: %v", err)
	}
	if b.answers, b.execMS, err = oracle(b.db, append([]string{nestedProbe}, w.queries...)); err != nil {
		return nil, fmt.Errorf("oracle: %v", err)
	}
	if b.batches, err = encodeBatches(w.records, w.batch); err == nil {
		b.trickle, err = encodeBatches(w.trickle, 1)
	}
	if err != nil {
		return nil, fmt.Errorf("encode: %v", err)
	}
	for i := 0; i < max(w.clients, 2); i++ {
		b.clients = append(b.clients, newClient())
	}
	return b, nil
}

// useInproc makes the run drive a traced in-process serve.Server.
func (b *bench) useInproc() {
	b.inproc = &inprocServer{db: b.db, tr: b.tr}
	b.srv = b.inproc
}

// correct: every output matched its reference and no operation failed.
func (b *bench) correct() bool { return b.mismatches.Load() == 0 && b.t.failed.Load() == 0 }

// conclude prints the stamp and, as the last line, the result to out, saves
// both under the output directory, and returns the exit code: 1 when any
// output was wrong or any operation failed.
func (b *bench) conclude(out io.Writer) int {
	o := b.o
	st := b.stamp()
	var metrics map[string]metric
	if o.trace == 1 {
		metrics = b.layerMetrics()
		if err := b.writeTrace(metrics, st); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing trace:", err)
		}
	} else {
		metrics = b.endToEnd()
	}
	if e := b.t.firstErr; e != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: first failure:", e)
	}
	res := result{Correct: b.correct(), Attempted: b.t.attempted.Load(), Failed: b.t.failed.Load(), Metrics: metrics}
	stLine, _ := json.Marshal(st)
	fmt.Fprintln(out, "stamp", string(stLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	saved := filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	if err := os.WriteFile(saved, append(append(stLine, '\n'), line...), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "e2ebench: %d outputs did not match the reference and %d of %d operations failed\n",
			b.mismatches.Load(), res.Failed, res.Attempted)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// wrong records a wrong answer: a failed operation counted among the
// mismatches too.
func (b *bench) wrong(err error) {
	if err == nil {
		return
	}
	b.mismatches.Add(1)
	b.t.fail(err)
}

func (b *bench) retarget(base string) {
	for _, c := range b.clients {
		c.retarget(base)
	}
}

// rounds runs rounds on fresh servers until --seconds have passed, at least
// minRounds, timing the host calibration before the first and after each
// one. A traced run alternates traced and untraced rounds so the tracing
// overhead is measured within the run.
func (b *bench) rounds() error {
	t0 := time.Now()
	b.calibrate(hostWorkReps)
	for k := 0; k < minRounds || time.Since(t0) < time.Duration(b.o.seconds)*time.Second; k++ {
		traced := b.inproc != nil && k%2 == 0
		if err := b.round(k, traced); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) round(k int, traced bool) error {
	var (
		rs       *runtimeSampler
		before   map[string]float64
		cpuStart float64
		rspan    openSpan
		prof     bytes.Buffer
	)
	if traced {
		b.tr.on.Store(true)
		rspan = b.tr.beginRound()
		rs = startSampler()
		before = obs.Default().Snapshot()
		cpuStart = processCPUSeconds()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var err error
	if b.w.closed {
		err = b.closedRound(k)
	} else {
		err = b.serveRound(k)
	}
	if traced {
		pprof.StopCPUProfile()
		owners, perr := cpuByOwner(prof.Bytes())
		if perr != nil {
			return fmt.Errorf("reading the CPU profile: %v", perr)
		}
		b.layers.owners = addDelta(b.layers.owners, owners)
		b.layers.obs = addDelta(b.layers.obs, delta(before, obs.Default().Snapshot()))
		b.layers.cpu += processCPUSeconds() - cpuStart
		rs.finish()
		b.layers.heapPeak = max(b.layers.heapPeak, rs.peak)
		b.layers.gcCPU += rs.gc
		b.layers.srv.add(b.inproc.retired)
		b.layers.acked += b.roundAcked
		b.layers.rounds++
		b.tr.endRound(rspan)
		b.tr.on.Store(false)
	}
	if b.inproc != nil {
		b.inproc.retired = serverCounters{}
	}
	b.m.traced = append(b.m.traced, traced)
	if err == nil {
		// One batch mine after each round: batch_mine_s is the median of
		// mines spread over the whole run, like the rounds' own samples.
		_, s := batchMine(b.w.allRecords(), b.db)
		b.m.mineS = append(b.m.mineS, s)
		b.calibrate(calibReps)
	}
	return err
}

// closedRound: launch, ingest every record closed-loop, flush and verify,
// sample /query, crash and recover.
func (b *bench) closedRound(k int) error {
	walDir := filepath.Join(b.runDir, fmt.Sprintf("wal-%d", k))
	defer os.RemoveAll(walDir)
	defer b.srv.crash()
	t0 := time.Now()
	base, err := b.srv.start(walDir)
	if b.t.op(err) != nil {
		return err
	}
	b.m.setupS = append(b.m.setupS, time.Since(t0).Seconds())
	b.retarget(base)
	b.probe()
	cpu0 := b.srv.cpuSeconds()
	res := closedLoop(b.clients[:b.w.clients], b.batches, &b.t)
	b.m.ackMS = append(b.m.ackMS, res.ackMS...)
	b.m.ingestRPS = append(b.m.ingestRPS, float64(res.acked)/res.lastAck.Sub(res.start).Seconds())
	return b.finish(walDir, res.acked, res.start, res.lastAck, cpu0)
}

// serveRound: launch, preload and mine (the set-up), then open-loop /query
// beside an ingest trickle for serveSeconds, then verify, crash and recover.
func (b *bench) serveRound(k int) error {
	walDir := filepath.Join(b.runDir, fmt.Sprintf("wal-%d", k))
	defer os.RemoveAll(walDir)
	defer b.srv.crash()
	t0 := time.Now()
	base, err := b.srv.start(walDir)
	if b.t.op(err) != nil {
		return err
	}
	launch := time.Since(t0)
	b.retarget(base)
	b.probe()
	t1 := time.Now()
	pre := closedLoop(b.clients[:1], b.batches, &b.t)
	b.t.op(b.srv.flush(b.clients[0]))
	b.m.setupS = append(b.m.setupS, (launch + time.Since(t1)).Seconds())

	cpu0 := b.srv.cpuSeconds()
	start := time.Now().Add(5 * time.Millisecond)
	var (
		wg      sync.WaitGroup
		acked   int
		lastAck time.Time
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := b.clients[1]
		interval := time.Duration(float64(time.Second) / b.w.ingestRate)
		// An ack is timed from its own send, as on the closed-loop
		// workloads; a stall that delays later sends is the query stream's
		// concern, timed there from the due time.
		var ackMS []float64
		openLoop(start, len(b.trickle), interval, func(i int) error {
			t0 := time.Now()
			_, err := c.ingest(b.trickle[i])
			if b.t.op(err) == nil {
				lastAck = time.Now()
				ackMS = append(ackMS, ms(lastAck.Sub(t0)))
				acked += b.trickle[i].records()
			}
			return err
		})
		b.mu.Lock()
		b.m.ackMS = append(b.m.ackMS, ackMS...)
		b.mu.Unlock()
	}()
	check := b.queryPhase(b.clients[0], start, b.w.queries, b.w.queryRate)
	wg.Wait()
	b.m.ingestRPS = append(b.m.ingestRPS, float64(acked)/lastAck.Sub(start).Seconds())
	err = b.finish(walDir, pre.acked+acked, start, lastAck, cpu0)
	check()
	return err
}

// queryPhase sends stmts on c, open-loop at rate or closed-loop when rate
// is 0. It returns a function that checks the sampled replies against
// direct execution, to be called once the measured phase is over.
func (b *bench) queryPhase(c *client, start time.Time, stmts []string, rate float64) (check func()) {
	type sample struct {
		i    int
		body []byte
	}
	var samples []sample
	var kinds [3]int
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	lat, late, _ := openLoop(start, len(stmts), interval, func(i int) error {
		status, hdr, body, err := c.do(http.MethodPost, "/query", "text/plain", []byte(stmts[i]))
		if err == nil && status >= 500 {
			err = fmt.Errorf("query: %d: %s", status, body)
		}
		if b.t.op(err) != nil {
			return err
		}
		if want := b.answers[stmts[i]]; status != want.status {
			b.wrong(fmt.Errorf("query %q: status %d, direct execution gives %d", stmts[i], status, want.status))
		} else if i%sampleEvery == 0 && status == http.StatusOK {
			samples = append(samples, sample{i, body})
		}
		kinds[queryKind(hdr, body)]++
		return nil
	})
	b.mu.Lock()
	b.m.queryMS = append(b.m.queryMS, lat...)
	b.m.lateMS = append(b.m.lateMS, late...)
	for i, n := range kinds {
		b.m.kinds[i] += n
	}
	b.mu.Unlock()
	return func() {
		for _, s := range samples {
			if err := checkQuery(b.answers[stmts[s.i]], http.StatusOK, s.body); err != nil {
				b.wrong(fmt.Errorf("query %q: %v", stmts[s.i], err))
			}
		}
	}
}

// probe sends the nested-loop statement to a server that has not mined
// yet (query_nested_ms); set-up time excludes it.
func (b *bench) probe() {
	c := b.clients[0]
	t0 := time.Now()
	status, _, body, err := c.do(http.MethodPost, "/query", "text/plain", []byte(nestedProbe))
	b.m.nestedMS = append(b.m.nestedMS, ms(time.Since(t0)))
	if b.t.op(err) == nil {
		if err := checkQuery(b.answers[nestedProbe], status, body); err != nil {
			b.wrong(fmt.Errorf("nested-loop probe: %v", err))
		}
	}
}

// finish ends a round after its last ack: flush and verify the report
// (report_lag_s, ingest_to_report_s from start, server_cpu_s), sample
// /query on closed-loop workloads,
// then SIGKILL and restart on the same WAL (recover_s).
func (b *bench) finish(walDir string, acked int, start, lastAck time.Time, cpu0 float64) error {
	c := b.clients[0]
	b.t.op(b.srv.flush(c))
	rep, err := b.srv.report(c)
	if b.t.op(err) == nil && !bytes.Equal(rep, b.ref) {
		b.wrong(fmt.Errorf("report after flush differs from the batch miner's (%d vs %d bytes)", len(rep), len(b.ref)))
	}
	b.m.reportLagS = append(b.m.reportLagS, time.Since(lastAck).Seconds())
	b.m.toReportS = append(b.m.toReportS, time.Since(start).Seconds())
	b.roundAcked = acked
	b.m.cpuS = append(b.m.cpuS, b.srv.cpuSeconds()-cpu0)
	b.checkProcessed(c, acked)
	b.calibrate(calibReps)
	if b.w.closed {
		b.queryPhase(c, time.Now(), b.roundQueries(), b.w.queryRate)()
	}
	b.m.rssMB = append(b.m.rssMB, b.srv.peakRSSMB())
	b.srv.crash()
	t0 := time.Now()
	base, err := b.srv.start(walDir)
	if b.t.op(err) != nil {
		return err
	}
	b.retarget(base)
	// The restarted server replays the WAL and runs an anchoring epoch
	// before it answers, so its first report must already match.
	rec, err := b.srv.report(c)
	if b.t.op(err) == nil && !bytes.Equal(rec, rep) {
		b.wrong(fmt.Errorf("report after SIGKILL and restart differs from the one before"))
	}
	b.m.recoverS = append(b.m.recoverS, time.Since(t0).Seconds())
	b.checkProcessed(c, acked)
	b.calibrate(calibReps)
	return nil
}

// roundQueries is the next sampleQueries statements of the workload's
// queries, taken cyclically, for a closed-loop round.
func (b *bench) roundQueries() []string {
	out := make([]string, sampleQueries)
	for i := range out {
		out[i] = b.w.queries[(b.queryNext+i)%len(b.w.queries)]
	}
	b.queryNext += sampleQueries
	return out
}

// checkProcessed compares the server's processed count with the records
// the benchmark saw acknowledged.
func (b *bench) checkProcessed(c *client, acked int) {
	status, _, body, err := c.do(http.MethodGet, "/stats", "", nil)
	if b.t.op(err) != nil {
		return
	}
	var st struct {
		Processed int64 `json:"processed"`
	}
	if err := json.Unmarshal(body, &st); err != nil || status != http.StatusOK {
		b.wrong(fmt.Errorf("stats: %d: %v", status, err))
		return
	}
	if st.Processed != int64(acked) {
		b.wrong(fmt.Errorf("processed %d records, %d were acknowledged", st.Processed, acked))
	}
}

// ungatedNames are the end-to-end figures a run measures but BENCHMARK.json
// does not gate on; README.md says why for each. The stamp prints them.
var ungatedNames = []string{"ingest_rps", "report_lag_s", "ingest_ack_p99_ms", "failed_frac"}

// endToEnd is the gated end-to-end metrics, scaled to the reference host.
func (b *bench) endToEnd() map[string]metric {
	out := b.scaled()
	for _, k := range ungatedNames {
		delete(out, k)
	}
	return out
}

// ungated is the figures of ungatedNames, scaled to the reference host.
func (b *bench) ungated() map[string]metric {
	all := b.scaled()
	out := make(map[string]metric, len(ungatedNames))
	for _, k := range ungatedNames {
		out[k] = all[k]
	}
	return out
}

// scaled is asMeasured with every timing multiplied, and every rate
// divided, by the run's speed factor (calib.go).
func (b *bench) scaled() map[string]metric {
	f := b.speedFactor()
	out := b.asMeasured()
	for k, v := range out {
		switch v.Unit {
		case "s", "ms":
			v.Value *= f
		case "1/s":
			v.Value /= f
		}
		out[k] = v
	}
	return out
}

// asMeasured reduces the samples to the end-to-end figures as timed on this
// host: medians across rounds, and percentiles over the pooled per-request
// samples.
func (b *bench) asMeasured() map[string]metric {
	m := &b.m
	failed := 0.0
	if n := b.t.attempted.Load(); n > 0 {
		failed = float64(b.t.failed.Load()) / float64(n)
	}
	return map[string]metric{
		"setup_s":            {median(m.setupS), "s"},
		"ingest_rps":         {median(m.ingestRPS), "1/s"},
		"ingest_ack_p50_ms":  {quantile(m.ackMS, 0.5), "ms"},
		"ingest_ack_p99_ms":  {quantile(m.ackMS, 0.99), "ms"},
		"ingest_to_report_s": {median(m.toReportS), "s"},
		"report_lag_s":       {median(m.reportLagS), "s"},
		"recover_s":          {median(m.recoverS), "s"},
		"batch_mine_s":       {median(m.mineS), "s"},
		"query_p50_ms":       {quantile(m.queryMS, 0.5), "ms"},
		"query_p99_ms":       {quantile(m.queryMS, 0.99), "ms"},
		"query_nested_ms":    {median(m.nestedMS), "ms"},
		"peak_rss_mb":        {median(m.rssMB), "MB"},
		"server_cpu_s":       {median(m.cpuS), "s"},
		"failed_frac":        {failed, "ratio"},
	}
}

// classShares replays recs in log order through a traffic classifier
// configured as the server's and returns each class's share of the records.
func classShares(recs []qlog.Record) map[string]float64 {
	c := traffic.NewClassifier(traffic.Config{})
	for _, r := range recs {
		fp, _ := sqlparser.FingerprintOnly(r.SQL)
		c.Observe(r.User, r.Time, fp, r.SQL)
	}
	out := map[string]float64{}
	for cls, n := range c.Counts() {
		out[cls] = float64(n) / float64(len(recs))
	}
	return out
}

// observeCost replays the records through a fresh traffic classifier and
// returns nanoseconds per Observe call, fingerprints computed beforehand.
func observeCost(recs []qlog.Record) float64 {
	fps := make([]uint64, len(recs))
	for i, r := range recs {
		fps[i], _ = sqlparser.FingerprintOnly(r.SQL) // 0 for a statement that does not lex, as the server passes
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		c := traffic.NewClassifier(traffic.Config{})
		for i, r := range recs {
			c.Observe(r.User, r.Time, fps[i], r.SQL)
		}
		calls += len(recs)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}
