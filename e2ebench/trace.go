package main

import (
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extract"
	"repro/internal/serve"
)

// span is one traced interval: an HTTP request the in-process server
// served, or one of the benchmark's own calls into it. Times are
// nanoseconds since the tracer started. Every span of a round has the
// round's span as parent and shares its trace id.
type span struct {
	Name    string `json:"name"`
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Status  int    `json:"status,omitempty"`
}

// tracer keeps spans in memory until the run ends. While off, begin and end
// record nothing and the middleware passes requests straight through.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint64
	round  atomic.Uint64 // id of the open round span, parent of the rest

	mu    sync.Mutex
	spans []span

	refused429 atomic.Int64
	queueMax   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type openSpan struct {
	name  string
	id    uint64
	start time.Time
}

func (t *tracer) begin(name string) openSpan {
	if !t.on.Load() {
		return openSpan{}
	}
	return openSpan{name: name, id: t.nextID.Add(1), start: time.Now()}
}

func (t *tracer) end(o openSpan) {
	if o.id == 0 {
		return
	}
	t.record(span{Name: o.name, ID: o.id, StartNS: int64(o.start.Sub(t.t0)), EndNS: int64(time.Since(t.t0))})
}

func (t *tracer) record(s span) {
	s.Parent = t.round.Load()
	s.Trace = s.Parent
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginRound opens the span every other span of the round hangs under.
func (t *tracer) beginRound() openSpan {
	o := openSpan{name: "round", id: t.nextID.Add(1), start: time.Now()}
	t.round.Store(o.id)
	return o
}

func (t *tracer) endRound(o openSpan) {
	t.round.Store(0)
	t.record(span{Name: o.name, ID: o.id, StartNS: int64(o.start.Sub(t.t0)), EndNS: int64(time.Since(t.t0))})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware records a span per request and, for /ingest, the 429 refusals
// and the deepest ingest queue seen when a request completes.
func (t *tracer) middleware(h http.Handler, srv *serve.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.nextID.Add(1)
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		t.record(span{Name: "http " + r.URL.Path, ID: id, StartNS: int64(t0.Sub(t.t0)),
			EndNS: int64(time.Since(t.t0)), Status: sw.status})
		if r.URL.Path == "/ingest" {
			if sw.status == http.StatusTooManyRequests {
				t.refused429.Add(1)
			}
			d := int64(srv.Telemetry().QueueDepth)
			for cur := t.queueMax.Load(); d > cur && !t.queueMax.CompareAndSwap(cur, d); cur = t.queueMax.Load() {
			}
		}
	})
}

// serverCounters are the per-server counters a traced round reads from a
// serve.Server before it goes away.
type serverCounters struct {
	memoHits, classRecords                  float64
	tplHits, tplMisses                      int64
	cacheHits, cacheMisses, composed, stale int64
	bytesResident                           int64
	distinct                                int
}

func countersOf(srv *serve.Server, tc *extract.TemplateCache) serverCounters {
	reg := srv.Registry().Snapshot()
	c := serverCounters{
		memoHits: reg["skyaccess_serve_distance_cache_hits_total"],
		classRecords: reg["skyaccess_serve_traffic_bot_records_total"] +
			reg["skyaccess_serve_traffic_human_records_total"] +
			reg["skyaccess_serve_traffic_admin_records_total"],
		tplHits: tc.Hits(), tplMisses: tc.Misses(),
		distinct: srv.Telemetry().DistinctAreas,
	}
	if qc := srv.QueryCache(); qc != nil {
		m := qc.Metrics()
		c.cacheHits, c.cacheMisses, c.composed, c.stale = m.Hits, m.Misses, m.ComposedHits, m.StaleMisses
		c.bytesResident = m.BytesResident
	}
	return c
}

func (c *serverCounters) add(o serverCounters) {
	c.memoHits += o.memoHits
	c.classRecords += o.classRecords
	c.tplHits += o.tplHits
	c.tplMisses += o.tplMisses
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.composed += o.composed
	c.stale += o.stale
	c.bytesResident = max(c.bytesResident, o.bytesResident)
	c.distinct = max(c.distinct, o.distinct)
}

// runtimeSampler tracks the Go heap's in-use peak and the GC's CPU share
// while a traced round runs.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	gc0  float64
	gc   float64
}

var rtSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() (heap uint64, gc float64) {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64()
}

func startSampler() *runtimeSampler {
	rs := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	rs.peak, rs.gc0 = readRuntime()
	go func() {
		defer close(rs.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-rs.stop:
				return
			case <-tick.C:
				if h, _ := readRuntime(); h > rs.peak {
					rs.peak = h
				}
			}
		}
	}()
	return rs
}

// finish stops the sampler and returns once its goroutine has exited.
func (rs *runtimeSampler) finish() {
	close(rs.stop)
	<-rs.done
	h, gc := readRuntime()
	rs.peak = max(rs.peak, h)
	rs.gc = gc - rs.gc0
}

// delta is after minus before, key by key.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
