package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/memdb"
	"repro/internal/qlog"
	"repro/internal/report"
)

// batchMine mines recs with the in-process batch miner, the path an aamine
// user takes, configured as the server is, and returns the result and the
// time it took.
func batchMine(recs []qlog.Record, db *memdb.DB) (*core.Result, float64) {
	m := core.NewMiner(minerConfig(db))
	t0 := time.Now()
	res := m.MineRecords(recs)
	return res, time.Since(t0).Seconds()
}

// reference is the batch miner's JSON report with coverage: what /report
// must return byte for byte.
func reference(res *core.Result, db *memdb.DB) ([]byte, error) {
	res.AttachCoverage(db)
	var buf bytes.Buffer
	err := report.Write(&buf, res, report.JSON, report.Options{Coverage: true})
	return buf.Bytes(), err
}

// queryExec is the server's /query execution limit (serve.Config default).
var queryExec = memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true}

// answer is what /query must return for one statement: the status, and for
// a 200 the canonical rows part of the body.
type answer struct {
	status int
	body   []byte
}

// queryBody is the part of a /query reply that must equal direct execution.
type queryBody struct {
	Columns  []string `json:"columns,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	RowCount int      `json:"row_count"`
}

// oracle executes every distinct statement directly on a database built as
// the server builds its own, and times each execution.
func oracle(db *memdb.DB, stmts []string) (map[string]answer, []float64, error) {
	out := make(map[string]answer)
	var execMS []float64
	for _, sql := range stmts {
		if _, ok := out[sql]; ok {
			continue
		}
		t0 := time.Now()
		rs, err := db.ExecuteSQL(sql, queryExec)
		execMS = append(execMS, ms(time.Since(t0)))
		if err != nil {
			out[sql] = answer{status: http.StatusBadRequest}
			continue
		}
		qb := queryBody{Columns: rs.Columns, RowCount: len(rs.Rows), Rows: make([][]any, len(rs.Rows))}
		for i, row := range rs.Rows {
			vals := make([]any, len(row))
			for j, v := range row {
				switch v.Kind {
				case memdb.Num:
					vals[j] = v.Num
				case memdb.Str:
					vals[j] = v.Str
				}
			}
			qb.Rows[i] = vals
		}
		b, err := json.Marshal(qb)
		if err != nil {
			return nil, nil, err
		}
		out[sql] = answer{status: http.StatusOK, body: b}
	}
	return out, execMS, nil
}

// canonical re-encodes the rows part of a /query reply the way oracle
// encodes direct results.
func canonical(body []byte) ([]byte, error) {
	var qb queryBody
	if err := json.Unmarshal(body, &qb); err != nil {
		return nil, err
	}
	return json.Marshal(qb)
}

// checkQuery compares one /query reply with direct execution.
func checkQuery(want answer, status int, body []byte) error {
	if status != want.status {
		return fmt.Errorf("query: status %d, direct execution gives %d", status, want.status)
	}
	if status != http.StatusOK {
		return nil
	}
	got, err := canonical(body)
	if err != nil {
		return fmt.Errorf("query: undecodable reply: %v", err)
	}
	if !bytes.Equal(got, want.body) {
		return fmt.Errorf("query: rows differ from direct execution")
	}
	return nil
}

// Query outcome kinds, for the workload's hit/miss/unsafe shares.
const (
	kindHit = iota
	kindMiss
	kindUnsafe
)

// queryKind classifies a reply: a hit, a miss the cache could have served
// with the right region, or a statement whose shape the cache refuses.
func queryKind(hdr http.Header, body []byte) int {
	if hdr.Get("X-Cache") == "HIT" {
		return kindHit
	}
	reason := ""
	if i := bytes.LastIndex(body, []byte(`"reason": "`)); i >= 0 {
		rest := body[i+len(`"reason": "`):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			reason = string(rest[:j])
		}
	}
	switch reason {
	case "no-region", "stale", "store-error", "verify-failed":
		return kindMiss
	}
	return kindUnsafe
}
