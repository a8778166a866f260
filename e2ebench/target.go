package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/extract"
	"repro/internal/memdb"
	"repro/internal/report"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/skyserver"
	"repro/internal/traffic"
)

// The server configuration, every subsystem on: WAL, traffic classes, and
// /query over the synthetic database. The wall-clock epoch timer is off so
// epochs follow the input, not the host's speed. serverFlags and
// serveConfig must describe the same server.
const (
	cfgRows       = 2000
	cfgEps        = 0.06
	cfgMinPts     = 8
	cfgSeed       = 42
	cfgEpochAreas = 512
	cfgQueue      = 4096
	cfgBatch      = 256
)

func serverFlags(addr, walDir string) []string {
	return []string{
		"-addr", addr, "-wal-dir", walDir, "-traffic", "-epoch-interval", "0",
		"-rows", strconv.Itoa(cfgRows), "-eps", fmt.Sprint(cfgEps), "-minpts", strconv.Itoa(cfgMinPts),
		"-seed", strconv.Itoa(cfgSeed), "-epoch-areas", strconv.Itoa(cfgEpochAreas),
		"-queue", strconv.Itoa(cfgQueue), "-batch", strconv.Itoa(cfgBatch),
	}
}

// buildDB builds the database skyserved builds for -rows (data seed 1).
func buildDB() *memdb.DB {
	return skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: cfgRows, Seed: 1})
}

func seededStats(db *memdb.DB) *schema.Stats {
	st := schema.NewStats()
	skyserver.SeedStats(db, st)
	return st
}

func minerConfig(db *memdb.DB) core.Config {
	return core.Config{
		Schema: skyserver.Schema(), Stats: seededStats(db),
		Eps: cfgEps, MinPts: cfgMinPts, Mode: distance.ModeEndpoint, Seed: cfgSeed,
		FullReclusterEvery: 8,
	}
}

func serveConfig(db *memdb.DB, walDir string, tc *extract.TemplateCache) serve.Config {
	return serve.Config{
		Miner: minerConfig(db), Coverage: db, QueryDB: db, Templates: tc,
		QueueSize: cfgQueue, BatchSize: cfgBatch, EpochAreas: cfgEpochAreas,
		WALDir: walDir, CacheComposeMax: 4, Traffic: &traffic.Config{},
	}
}

// server is the system under test: the skyserved binary as a child process
// (untraced runs) or serve.Server in this process (traced runs).
type server interface {
	// start launches a server on walDir and returns its base URL once it
	// serves requests.
	start(walDir string) (string, error)
	// crash stops the server without draining: only what the WAL fsynced
	// survives.
	crash()
	flush(c *client) error
	report(c *client) ([]byte, error)
	// cpuSeconds is the CPU time the server has used so far.
	cpuSeconds() float64
	// peakRSSMB is the server's peak resident set so far.
	peakRSSMB() float64
}

// childServer runs the skyserved binary.
type childServer struct {
	bin string
	log *os.File

	// mu guards cmd and done: the interrupt handler may crash the server
	// while the benchmark is using it.
	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (s *childServer) start(walDir string) (string, error) {
	addr, err := freeAddr()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(s.bin, serverFlags(addr, walDir)...)
	cmd.Stdout, cmd.Stderr = s.log, s.log
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(done)
	}()
	s.mu.Lock()
	s.cmd, s.done = cmd, done
	s.mu.Unlock()
	base := "http://" + addr
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(requestTimeout); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		select {
		case <-done:
			s.crash()
			return "", fmt.Errorf("skyserved exited during start-up (see %s)", s.log.Name())
		default:
		}
		if resp, err := hc.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, nil
			}
		}
	}
	s.crash()
	return "", fmt.Errorf("skyserved not ready after %v", requestTimeout)
}

// crash SIGKILLs the server and waits until it has been reaped.
func (s *childServer) crash() {
	s.mu.Lock()
	cmd, done := s.cmd, s.done
	s.cmd = nil
	s.mu.Unlock()
	if cmd == nil {
		return
	}
	_ = cmd.Process.Kill() // fails only if it already exited; done closes either way
	<-done
}

func (s *childServer) pid() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cmd == nil {
		return 0
	}
	return s.cmd.Process.Pid
}

func (s *childServer) flush(c *client) error {
	status, _, body, err := c.do(http.MethodPost, "/flush", "", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("flush: %d: %s", status, body)
	}
	return err
}

func (s *childServer) report(c *client) ([]byte, error) {
	status, _, body, err := c.do(http.MethodGet, "/report?format=json", "", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("report: %d: %s", status, body)
	}
	return body, err
}

// cpuSeconds reads the child's utime+stime from /proc (USER_HZ = 100).
func (s *childServer) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB reads the child's VmHWM.
func (s *childServer) peakRSSMB() float64 {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// inprocServer runs serve.Server in this process behind a loopback
// listener, with the tracer's middleware around its handler and spans
// around the benchmark's own calls into it.
type inprocServer struct {
	db  *memdb.DB
	tr  *tracer
	srv *serve.Server
	tc  *extract.TemplateCache
	hs  *http.Server
	// retired accumulates the counters of servers already crashed this
	// round, so a round's totals include the pre-crash server.
	retired serverCounters
}

func (s *inprocServer) start(walDir string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	tc := &extract.TemplateCache{}
	sp := s.tr.begin("serve.NewServer")
	srv, err := serve.NewServer(serveConfig(s.db, walDir, tc))
	s.tr.end(sp)
	if err != nil {
		ln.Close()
		return "", err
	}
	s.srv, s.tc = srv, tc
	s.hs = &http.Server{Handler: s.tr.middleware(srv.Handler(), srv)}
	go s.hs.Serve(ln) // returns http.ErrServerClosed once crash closes it
	return "http://" + ln.Addr().String(), nil
}

func (s *inprocServer) crash() {
	if s.srv == nil {
		return
	}
	s.retired.add(countersOf(s.srv, s.tc))
	_ = s.hs.Close() // drops open connections, as a killed process would
	s.srv.Abort()
	s.srv = nil
}

func (s *inprocServer) flush(*client) error {
	sp := s.tr.begin("serve.Flush")
	s.srv.Flush()
	s.tr.end(sp)
	return nil
}

// report renders the latest epoch exactly as GET /report?format=json does.
func (s *inprocServer) report(*client) ([]byte, error) {
	res, _ := s.srv.Latest()
	if res == nil {
		return nil, fmt.Errorf("report: no epoch has run")
	}
	var buf bytes.Buffer
	sp := s.tr.begin("report.Write")
	err := report.Write(&buf, res, report.JSON, report.Options{Coverage: true})
	s.tr.end(sp)
	return buf.Bytes(), err
}

func (s *inprocServer) cpuSeconds() float64 { return processCPUSeconds() }

func (s *inprocServer) peakRSSMB() float64 { return 0 }

func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
