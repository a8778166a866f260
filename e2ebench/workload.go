package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"repro/internal/qlog"
	"repro/internal/skyserver"
)

// Workload sizes. They are constants so that every round of a run does the
// same work whatever the host's speed; only the number of rounds follows
// --seconds. They keep one invocation near half a minute on a 2-core host.
const (
	mineFreshRecords = 3000 // ~95% new distinct areas: mining dominates
	mineFreshBatch   = 10

	// bot-replay: a GenerateMixedLog log of botRecords records, its users,
	// timestamps and cadences kept, in which each bot re-issues its first
	// botRepertoire statements Zipf(botZipfS)-skewed instead of new ones.
	// The class mix, the repertoire and the skew are not measured on
	// SkyServer data; they are chosen so that most records repeat earlier
	// text (~90%) while the distinct areas stay near 2k.
	botRecords = 20000
	// botBatch records per /ingest: enough that an ack's time is the
	// server's work on the batch more than one fsync's latency, which
	// follows the host's disk (20-record batches read 2x slower in a slow
	// disk phase).
	botBatch      = 200
	botRepertoire = 64
	botZipfS      = 1.2

	servePreload   = 2000  // Table-1 records mined before the timed phase
	serveSeconds   = 5     // length of query-serve's timed phase per round
	serveQueryRate = 120.0 // /query per second, open loop, one connection
	// serveIngestRate is the trickle's records per second, one per /ingest.
	// Nearly every trickle record is a new area, so at this rate the
	// -epoch-areas trigger (512) fires about 2 s and 4 s into the phase:
	// two epochs and cache re-installs run beside the queries.
	serveIngestRate = 280.0

	// queryPoolSize is the size of the fresh-seed log /query statements
	// come from. A 300-record log put only three statements in the top 1%,
	// so query_p99_ms followed the seed's few slowest statements.
	queryPoolSize = 1200
	// sampleQueries is the /query per round on the closed-loop workloads,
	// sent closed-loop: successive rounds send successive parts of the pool.
	sampleQueries = 300
)

// workload is one generated input set. Every field is a pure function of
// (name, seed), so the same seed gives byte-identical inputs.
type workload struct {
	name string
	// records are ingested closed-loop by clients concurrent clients in
	// batches of batch records each round (mine-fresh, bot-replay), or once
	// as the preload before the timed phase (query-serve).
	records []qlog.Record
	clients int
	batch   int
	// trickle (query-serve) is sent one record per /ingest at ingestRate
	// beside the open-loop queries.
	trickle    []qlog.Record
	ingestRate float64
	// queries are the /query statements, sent in this order: open-loop at
	// queryRate on query-serve, closed-loop sampleQueries after each round
	// otherwise.
	queries   []string
	queryRate float64
	// closed marks the closed-loop workloads; query-serve's round is an
	// open-loop phase of serveSeconds.
	closed bool
}

var workloadNames = []string{"mine-fresh", "bot-replay", "query-serve"}

// freshSeed derives the seed of a second, independent log from the run seed.
func freshSeed(seed int64, salt int64) int64 { return seed*1000003 + salt }

func toRecords(entries []skyserver.LogEntry, seqBase int, timeBase int64) []qlog.Record {
	recs := make([]qlog.Record, len(entries))
	for i, e := range entries {
		recs[i] = qlog.Record{Seq: seqBase + e.Seq, Time: timeBase + e.Time, User: e.User, SQL: e.SQL}
	}
	return recs
}

// nestedLoopRE matches the statement shapes memdb evaluates as a nested loop
// over two whole tables: comma joins and correlated EXISTS. At 2000 rows per
// table one such statement takes seconds, a thousand times an ordinary one,
// and how long depends on its literals.
var nestedLoopRE = regexp.MustCompile(`(?i)\bFROM\s+\w+\s*,\s*\w+|\bEXISTS\s*\(`)

// queryStatements returns n /query statements: the statements of a
// Table-1 log generated with a seed the mined log never used, in a seeded
// order, cycled. Some fall inside mined regions (hits), some outside
// (misses), and the log's error, DDL and dialect statements are shapes the
// cache refuses (unsafe). Taking the whole log, not a random draw from it,
// keeps each template's share the generator's, the same for every seed.
// Nested-loop shapes are left out: the generator emits anywhere from none
// to several per log, each stalling the stream for up to seconds, so runs
// would not be comparable. nestedProbe measures the shape instead.
func queryStatements(seed int64, n int) []string {
	var pool []string
	for _, e := range skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: queryPoolSize, Seed: freshSeed(seed, 7919)}) {
		if !nestedLoopRE.MatchString(e.SQL) {
			pool = append(pool, e.SQL)
		}
	}
	r := rand.New(rand.NewSource(freshSeed(seed, 31)))
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := make([]string, n)
	for i := range out {
		out[i] = pool[i%len(pool)]
	}
	return out
}

// nestedProbe is the nested-loop statement each round sends once to a
// server that has not mined yet, so the cache misses and memdb executes it
// directly: query_nested_ms. It is a fixed instance of a Table-1 template
// (cluster 16's EXISTS variant), so its cost is the same in every run:
// about half a second at 2000 rows per table.
const nestedProbe = "SELECT * FROM galSpecExtra WHERE galSpecExtra.bptclass >= 2 AND galSpecExtra.bptclass <= 2 AND " +
	"EXISTS (SELECT * FROM galSpecIndx WHERE galSpecIndx.specObjID = galSpecExtra.specobjid)"

// botMix is bot-replay's class mix: bots dominate, as the SkyServer Traffic
// Report describes, at a share picked for this benchmark, not measured.
var botMix = skyserver.ClassMix{Bot: 0.90, Human: 0.08, Admin: 0.02}

// botLog is a mixed-traffic log of n records in which bots re-issue the
// same statements. The generator's users, timestamps and per-user cadences
// are kept, so the traffic classifier sees the generator's classes; human
// and admin records keep their text. Each bot's record instead takes a
// statement drawn Zipf-skewed, with replacement, from the first
// botRepertoire statements that bot issued: a few statements per bot carry
// most of its traffic. Every bot's templates are fixed by its index, so no
// seed can make one long statement carry the log.
func botLog(seed int64, n int) []qlog.Record {
	recs := toRecords(skyserver.GenerateMixedLog(skyserver.WorkloadConfig{Queries: n, Seed: seed}, botMix), 0, 0)
	r := rand.New(rand.NewSource(freshSeed(seed, 101)))
	repertoire := map[string][]string{}
	draws := map[string]*rand.Zipf{}
	for i, rec := range recs {
		if !strings.HasPrefix(rec.User, "bot") {
			continue
		}
		rep := repertoire[rec.User]
		if len(rep) < botRepertoire {
			repertoire[rec.User] = append(rep, rec.SQL)
			continue
		}
		z := draws[rec.User]
		if z == nil {
			z = rand.NewZipf(r, botZipfS, 1, botRepertoire-1)
			draws[rec.User] = z
		}
		recs[i].SQL = rep[z.Uint64()]
	}
	return recs
}

func makeWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "mine-fresh":
		return &workload{
			name:    name,
			records: toRecords(skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: mineFreshRecords, Seed: seed}), 0, 0),
			clients: 1, batch: mineFreshBatch,
			queries: queryStatements(seed, queryPoolSize),
			closed:  true,
		}, nil
	case "bot-replay":
		return &workload{
			name:    name,
			records: botLog(seed, botRecords),
			clients: 2, batch: botBatch,
			queries: queryStatements(seed, queryPoolSize),
			closed:  true,
		}, nil
	case "query-serve":
		pre := toRecords(skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: servePreload, Seed: seed}), 0, 0)
		last := pre[len(pre)-1]
		n := serveSeconds * int(serveIngestRate)
		// The trickle is a second Table-1 log, so nearly every record is a
		// new area; its clock continues after the preload's.
		tr := toRecords(skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: n, Seed: freshSeed(seed, 104729)}), len(pre), last.Time+4)
		if len(tr) > n {
			tr = tr[:n]
		}
		return &workload{
			name:    name,
			records: pre,
			clients: 1, batch: mineFreshBatch,
			trickle: tr, ingestRate: serveIngestRate,
			queries:   queryStatements(seed, serveSeconds*int(serveQueryRate)),
			queryRate: serveQueryRate,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// allRecords is every record the workload acknowledges on one server: what
// the batch-miner reference must cover.
func (w *workload) allRecords() []qlog.Record {
	return append(append([]qlog.Record(nil), w.records...), w.trickle...)
}

// repeatShare is the share of ingested records whose exact SQL text repeats
// an earlier record's: the input property fingerprint and template caches
// feed on.
func repeatShare(recs []qlog.Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	seen := make(map[string]bool, len(recs))
	rep := 0
	for _, r := range recs {
		if seen[r.SQL] {
			rep++
		}
		seen[r.SQL] = true
	}
	return float64(rep) / float64(len(recs))
}
