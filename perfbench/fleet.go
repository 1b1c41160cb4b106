package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/simcache"
)

// fleetBudgetStrata: the fleet space draws one register budget from each
// stratum, so every seed's space has the same size and a similar cost.
var fleetBudgetStrata = [][]int{{4, 5}, {8, 10}, {12, 14}, {16, 20}, {24, 28}, {32, 40}, {48, 56}, {64, 96}}

// fleetRemote is a fleet.Driver over nproc in-process EngineExecutors
// (Workers: 1, each with its own memory store) sharing one remote tier: a
// simcache blob server over a directory-backed store behind httptest.
// Set-up starts the blob server and constructs the space; an untimed
// sweep then populates the store (every blob PUT once). Each timed sweep
// starts its executors with empty memory stores and a fresh checkpoint
// directory, so every lookup is a remote GET served from the store's
// directory.
type fleetRemote struct {
	b       *bench
	spec    dse.SpaceSpec
	space   dse.Space
	formats []string

	storeDir string // the blob server's directory
	hs       *httptest.Server
	tap      atomic.Pointer[tracer] // the traced sweep's tracer, nil otherwise
	runs     atomic.Int64           // names fresh directories
	puts     *tracer                // the populating sweep's blob-server samples

	execBusy atomic.Int64 // Σ executor Run time of the current traced sweep, ns
}

func (w *fleetRemote) inputs(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var budgets []string
	for _, s := range fleetBudgetStrata {
		budgets = append(budgets, fmt.Sprint(s[rng.Intn(len(s))]))
	}
	sp, err := dse.BuildSpace("figure1,fir,decfir,imi,mat,pat,bic", "", strings.Join(budgets, ","),
		"XCV1000,XC2V6000,XC2V1000", "2,4", "1,2")
	if err != nil {
		return err
	}
	w.spec = dse.Spec(sp)
	w.formats = balancedFormats(rng, cliFormats, 64)
	return nil
}

func (w *fleetRemote) references() (map[string]string, error) {
	space, err := w.spec.Space()
	if err != nil {
		return nil, err
	}
	return renderReferences("fleet_remote", space, cliFormats)
}

// setup starts a blob server over the run's store and constructs the
// space from its portable spec.
func (w *fleetRemote) setup() error {
	if w.storeDir == "" {
		w.storeDir = w.freshDir("blob")
	}
	store, err := simcache.NewDir(w.storeDir)
	if err != nil {
		return err
	}
	h, err := simcache.NewBlobHandler(store, nil)
	if err != nil {
		return err
	}
	w.hs = httptest.NewServer(blobTap{h, &w.tap})
	w.space, err = w.spec.Space()
	return err
}

// warm populates the store with one sweep, recording the blob server's PUTs,
// then runs one sweep that, like the timed ones, only GETs.
func (w *fleetRemote) warm() error {
	w.puts = newTracer()
	if err := w.op(context.Background(), 0, 0, w.puts).err; err != nil {
		return err
	}
	return w.op(context.Background(), 0, 1, nil).err
}

func (w *fleetRemote) freshDir(kind string) string {
	// Directories are removed with the run's scratch directory, not
	// between sweeps: deleting thousands of files makes the next sweep's
	// file creates pay for the file system's delete work.
	return filepath.Join(w.b.tmp, fmt.Sprintf("%s-%d", kind, w.runs.Add(1)))
}

func (w *fleetRemote) clients() int { return 1 }

func (w *fleetRemote) op(ctx context.Context, _, i int, tr *tracer) opResult {
	stores := make([]*simcache.Cache, w.b.nproc)
	execs := make([]fleet.Executor, w.b.nproc)
	for j := range execs {
		stores[j] = simcache.New()
		stores[j].SetRemote(simcache.NewRemote(w.hs.URL))
		var ex fleet.Executor = &fleet.EngineExecutor{Label: fmt.Sprintf("e%d", j), Engine: dse.Engine{Workers: 1, SimCache: stores[j]}}
		if tr != nil {
			ex = timedExecutor{ex, &w.execBusy}
		}
		execs[j] = ex
	}
	drv, err := fleet.New(fleet.Config{Dir: w.freshDir("ckpt")}, execs...)
	if err != nil {
		return opResult{err: err}
	}
	format := w.formats[i%len(w.formats)]
	rep, err := dse.RendererFor(format)
	if err != nil {
		return opResult{err: err}
	}
	w.execBusy.Store(0)
	w.tap.Store(tr)
	start := time.Now()
	rs, report, err := drv.Run(ctx, w.spec)
	var buf bytes.Buffer
	if err == nil {
		err = rep.Report(&buf, rs)
	}
	dur := time.Since(start)
	w.tap.Store(nil)
	if err != nil {
		return opResult{dur: dur, err: err}
	}
	if tr != nil {
		for _, s := range stores {
			addCacheDelta(tr, simcache.Snapshot{}, s.Snapshot())
		}
		tr.sample("fleet.attempts", float64(report.Attempts))
		tr.sample("fleet.executor_ms", float64(w.execBusy.Load())/1e6)
		tr.sample("fleet.idle_frac", 1-float64(w.execBusy.Load())/(float64(dur)*float64(len(execs))))
		tr.sample("sched.unique_sims", float64(rs.UniqueSims))
		tr.sample("fleet.sweeps", 1)
		tr.note("fleet_report_last_sweep", report)
	}
	return opResult{points: len(rs.Results), dur: dur, err: w.b.verify("fleet_remote/"+format, buf.Bytes())}
}

// timedExecutor is a fleet.Executor decorator summing the time its
// attempts run.
type timedExecutor struct {
	fleet.Executor
	busy *atomic.Int64
}

func (e timedExecutor) Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error {
	start := time.Now()
	err := e.Executor.Run(ctx, spec, points, w)
	e.busy.Add(int64(time.Since(start)))
	return err
}

// blobTap is an http.Handler wrapper on the blob server counting GETs,
// PUTs, bytes moved either way, and GET latency while a traced sweep runs.
type blobTap struct {
	h  http.Handler
	tr *atomic.Pointer[tracer]
}

func (b blobTap) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := b.tr.Load()
	if tr == nil {
		b.h.ServeHTTP(rw, r)
		return
	}
	cw := &countingWriter{ResponseWriter: rw}
	start := time.Now()
	b.h.ServeHTTP(cw, r)
	ms := float64(time.Since(start).Microseconds()) / 1000
	switch r.Method {
	case http.MethodGet:
		tr.sample("remote.gets", 1)
		tr.sample("remote.get_ms", ms)
	case http.MethodPut:
		tr.sample("remote.puts", 1)
		tr.sample("remote.put_ms", ms)
	}
	tr.sample("remote.bytes", float64(cw.n.Load()+max(r.ContentLength, 0)))
}

type countingWriter struct {
	http.ResponseWriter
	n atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (w *fleetRemote) replay(rt *tracer) (int, error) {
	r := &replayer{b: w.b, rt: rt}
	if err := r.run(0, replayOp{key: "fleet_remote", space: w.space, formats: cliFormats}); err != nil {
		return 0, err
	}
	return 1, nil
}

func (w *fleetRemote) layers(lt *tracer, m metricSet) {
	sweeps := max(lt.sum("fleet.sweeps"), 1)
	cacheLayers(lt, m)
	m.set("sched.unique_sims", median(lt.series("sched.unique_sims")))
	m.set("simcache.remote_gets", lt.sum("remote.gets")/sweeps)
	// Timed sweeps find every blob in the store and PUT nothing; the PUT
	// rows are the populating sweep's.
	m.set("simcache.remote_puts", w.puts.sum("remote.puts"))
	m.set("simcache.remote_put_ms_p50", median(w.puts.series("remote.put_ms")))
	lt.note("loop_remote_puts_per_sweep", lt.sum("remote.puts")/sweeps)
	m.set("simcache.remote_get_ms_p50", median(lt.series("remote.get_ms")))
	m.set("simcache.remote_bytes", lt.sum("remote.bytes")/sweeps)
	m.set("fleet.executor_ms", median(lt.series("fleet.executor_ms")))
	m.set("fleet.attempts", median(lt.series("fleet.attempts")))
	m.set("fleet.idle_frac", median(lt.series("fleet.idle_frac")))
}

func (w *fleetRemote) close() {
	if w.hs != nil {
		w.hs.Close()
		w.hs = nil
	}
}
