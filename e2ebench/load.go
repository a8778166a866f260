package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qlog"
)

// requestTimeout bounds every request; a timeout counts as a failure.
const requestTimeout = 60 * time.Second

// client is one load-generator connection: its transport never opens more
// than one connection, so the generator's connection count is the number of
// clients it makes.
type client struct {
	hc   *http.Client
	base string
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// retarget points the client at a (re)started server.
func (c *client) retarget(base string) {
	c.hc.CloseIdleConnections()
	c.base = base
}

func (c *client) do(method, path, ctype string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

// tally counts operations attempted and failed. A failure is a transport
// error, a 5xx, a timeout or a wrong answer; a 429 that is re-sent and a 400
// the direct executor also gives are not failures.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErr          error
}

// op counts one attempted operation and whether it failed; it returns err.
func (t *tally) op(err error) error {
	t.attempted.Add(1)
	t.fail(err)
	return err
}

// fail counts err, when non-nil, as a failure of an operation already
// counted as attempted.
func (t *tally) fail(err error) {
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// batch is one pre-encoded NDJSON /ingest body; offs[i] is the byte offset of
// record i and offs[len] the body length, so a 429 tail re-sends without
// re-encoding.
type batch struct {
	body []byte
	offs []int
}

func (b batch) records() int { return len(b.offs) - 1 }

func encodeBatches(recs []qlog.Record, size int) ([]batch, error) {
	var out []batch
	for lo := 0; lo < len(recs); lo += size {
		hi := min(lo+size, len(recs))
		var buf bytes.Buffer
		offs := []int{0}
		for _, r := range recs[lo:hi] {
			if err := qlog.WriteJSONL(&buf, []qlog.Record{r}); err != nil {
				return nil, err
			}
			offs = append(offs, buf.Len())
		}
		out = append(out, batch{body: buf.Bytes(), offs: offs})
	}
	return out, nil
}

// ingest posts one batch until every record in it is acknowledged, re-sending
// the unaccepted tail of each 429. It returns the number of 429s.
func (c *client) ingest(b batch) (int, error) {
	done, refused := 0, 0
	for done < b.records() {
		status, _, body, err := c.do(http.MethodPost, "/ingest", "application/x-ndjson", b.body[b.offs[done]:])
		if err != nil {
			return refused, err
		}
		var reply struct {
			Accepted int    `json:"accepted"`
			Error    string `json:"error"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return refused, fmt.Errorf("ingest: %d: undecodable reply: %v", status, err)
		}
		switch status {
		case http.StatusAccepted:
			if reply.Accepted != b.records()-done {
				return refused, fmt.Errorf("ingest: 202 acknowledged %d of %d records", reply.Accepted, b.records()-done)
			}
			return refused, nil
		case http.StatusTooManyRequests:
			refused++
			done += reply.Accepted
			time.Sleep(time.Millisecond)
		default:
			return refused, fmt.Errorf("ingest: %d: %s", status, reply.Error)
		}
	}
	return refused, nil
}

// ingestResult is what one closed-loop ingest phase measured.
type ingestResult struct {
	ackMS   []float64 // per batch: send to the 202 covering its last record
	acked   int
	refused int
	start   time.Time
	lastAck time.Time
}

// closedLoop sends batches from len(clients) concurrent clients, each
// sending its next batch only after the previous one was acknowledged.
func closedLoop(clients []*client, batches []batch, t *tally) ingestResult {
	var (
		mu   sync.Mutex
		next int
		res  = ingestResult{start: time.Now()}
		wg   sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(batches) {
					return
				}
				t0 := time.Now()
				refused, err := c.ingest(batches[i])
				t1 := time.Now()
				mu.Lock()
				res.refused += refused
				if t.op(err) == nil {
					res.ackMS = append(res.ackMS, ms(t1.Sub(t0)))
					res.acked += batches[i].records()
					if t1.After(res.lastAck) {
						res.lastAck = t1
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return res
}

// openLoop calls send(i) for i in [0,n) with request i due at
// start + i*interval, one request at a time on the caller's connection: a
// slow request delays the ones behind it. Latency is timed from the due
// time, so such a stall counts against every request it delayed; late is how
// far behind schedule each request was sent. With interval 0 each request
// is due when the previous one completes: a closed loop.
func openLoop(start time.Time, n int, interval time.Duration, send func(i int) error) (latMS, lateMS []float64, errs int) {
	latMS = make([]float64, 0, n)
	lateMS = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if interval == 0 {
			due = time.Now()
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateMS = append(lateMS, ms(time.Since(due)))
		if err := send(i); err != nil {
			errs++
			continue
		}
		latMS = append(latMS, ms(time.Since(due)))
	}
	return latMS, lateMS, errs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tailRanks are the percentiles a timing may be reported at.
var tailRanks = []float64{0.5, 0.9, 0.95, 0.99, 0.995, 0.999}

// highestSupported is the highest percentile in tailRanks that has at least
// ten of n samples beyond it (0 when even the median has not).
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range tailRanks {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// quantile is the q-quantile of values by linear interpolation between
// closest ranks; values need not be sorted. It is NaN for no values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }
