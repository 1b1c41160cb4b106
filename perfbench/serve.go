package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/simcache"
)

var serveFormats = []string{"ndjson", "csv", "json", "table"}

// serveCatalogue is the fixed set of registry-kernel sub-spaces clients
// draw from, in the CLI's axis-list syntax: kernels, allocators
// ("portfolio" = every allocator as one portfolio point, "portfolio:A,B"
// = those), budgets, devices, memlats, ports (1 = the CLI default). Between them they cover
// every kernel, every allocator and the portfolio, all three devices and
// RAM latency/port variants.
var serveCatalogue = [][6]string{
	{"fir,decfir", "", "16,32,64", "XCV1000", "2", "1"},
	{"imi", "FR-RA,CPA-RA", "8,16,32,64", "XCV1000,XC2V6000", "1", "1"},
	{"mat", "portfolio", "16,32,64,128", "XC2V6000", "1,2", "1"},
	{"pat,figure1", "PR-RA,KS-RA", "8,16,32", "XC2V1000", "1", "1,2"},
	{"bic", "CPA-RA", "16,32,64,128", "XCV1000,XC2V6000,XC2V1000", "2,4", "1"},
	{"figure1,fir", "portfolio:FR-RA,PR-RA,CPA-RA", "4,8,16", "XCV1000,XC2V1000", "1", "1"},
	{"decfir,imi", "KS-RA", "32,64", "XC2V6000,XC2V1000", "1,3", "2"},
	{"pat", "", "8,16,32,64", "XCV1000", "2", "2"},
	{"mat,bic", "FR-RA,PR-RA", "32,128", "XC2V1000", "1", "1"},
	{"fir,imi,pat", "CPA-RA,KS-RA", "16,64", "XCV1000,XC2V6000", "1", "1,2"},
	{"figure1,decfir,mat", "portfolio", "16,32", "XC2V6000", "2", "1"},
	{"bic,figure1", "PR-RA,CPA-RA", "8,16,32,64", "XCV1000,XC2V6000,XC2V1000", "1", "1"},
}

type catEntry struct {
	key   string // reference key prefix
	space dse.Space
	body  []byte // the POSTed dse.SpaceSpec
}

type request struct{ entry, format int }

// serveWarm is the shared-service path: an in-process serve.Server behind
// httptest loopback HTTP, warmed over the whole catalogue in setup, driven
// by nproc closed-loop clients POSTing seed-ordered (spec, format) pairs.
type serveWarm struct {
	b    *bench
	cat  []catEntry
	seqs [][]request // per client; each block of len(cat)×formats is one seed-shuffled pass

	cache  *simcache.Cache
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client

	nextID     atomic.Int64
	handler    sync.Map // request id → handler time (ms), traced phases only
	phaseStart simcache.Snapshot
}

func buildSpace(a [6]string) (dse.Space, error) {
	allocs, portfolio := a[1], false
	if allocs == "portfolio" || len(allocs) > 10 && allocs[:10] == "portfolio:" {
		portfolio = true
		allocs = allocs[min(len(allocs), 10):]
	}
	sp, err := dse.BuildSpace(a[0], allocs, a[2], a[3], a[4], a[5])
	if err != nil {
		return sp, err
	}
	sp.Portfolio = portfolio
	// Round-trip through the portable spec: the server resolves the same
	// bytes, and the normalized space is what reporters see.
	return dse.Spec(sp).Space()
}

func (w *serveWarm) inputs(seed int64) error {
	w.cat = nil
	for i, a := range serveCatalogue {
		sp, err := buildSpace(a)
		if err != nil {
			return fmt.Errorf("catalogue entry %d: %w", i, err)
		}
		body, err := json.Marshal(dse.Spec(sp))
		if err != nil {
			return err
		}
		w.cat = append(w.cat, catEntry{key: fmt.Sprintf("serve_warm/e%02d", i), space: sp, body: body})
	}
	rng := rand.New(rand.NewSource(seed))
	w.seqs = make([][]request, w.b.nproc)
	for c := range w.seqs {
		for pass := 0; pass < 16; pass++ {
			for _, j := range rng.Perm(len(w.cat) * len(serveFormats)) {
				w.seqs[c] = append(w.seqs[c], request{entry: j / len(serveFormats), format: j % len(serveFormats)})
			}
		}
	}
	return nil
}

func (w *serveWarm) references() (map[string]string, error) {
	refs := map[string]string{}
	for _, e := range w.cat {
		r, err := renderReferences(e.key, e.space, serveFormats[1:])
		if err != nil {
			return nil, err
		}
		for k, v := range r {
			refs[k] = v
		}
		var buf bytes.Buffer
		if _, err := shard.Run(dse.Engine{Workers: 1, NoSimCache: true}, e.space, shard.Plan{Index: 0, Count: 1}, &buf); err != nil {
			return nil, err
		}
		rows, err := stripTrailer(buf.Bytes())
		if err != nil {
			return nil, err
		}
		refs[e.key+"/ndjson"] = digest(rows)
	}
	return refs, nil
}

// setup starts a fresh server over a fresh cache and makes one cold pass
// over the catalogue, so the timed loop only reads the caches.
func (w *serveWarm) setup() error {
	w.cache = simcache.New()
	reg := obs.New()
	w.cache.SetObs(reg)
	srv, err := serve.New(w.cache, reg, serve.Config{MaxInflight: w.b.nproc, MaxQueue: w.b.nproc})
	if err != nil {
		return err
	}
	w.srv = srv
	inner := srv.Handler()
	w.hs = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inner.ServeHTTP(rw, r)
		if id := r.Header.Get("X-Perfbench-Op"); id != "" {
			w.handler.Store(id, float64(time.Since(start).Microseconds())/1000)
		}
	}))
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.b.nproc}}
	for i := range w.cat {
		if _, _, _, err := w.post(context.Background(), request{entry: i}, ""); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWarm) clients() int { return w.b.nproc }

// shardTrailer is the part of an ndjson response's trailer the traced run
// reads.
type shardTrailer struct {
	UniqueSims int `json:"unique_sims"`
}

// post sends one request and verifies the response bytes; dur is the
// client-side latency up to the last body byte. An ndjson response also
// returns its trailer.
func (w *serveWarm) post(ctx context.Context, rq request, id string) (points int, dur time.Duration, tr *shardTrailer, err error) {
	e := w.cat[rq.entry]
	format := serveFormats[rq.format]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.hs.URL+"/v1/explore?format="+format, bytes.NewReader(e.body))
	if err != nil {
		return 0, 0, nil, err
	}
	if id != "" {
		req.Header.Set("X-Perfbench-Op", id)
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, time.Since(start), nil, err
	}
	body, err := io.ReadAll(resp.Body)
	dur = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, dur, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, dur, nil, fmt.Errorf("%s: HTTP %d: %s", e.key, resp.StatusCode, bytes.TrimSpace(body))
	}
	if format == "ndjson" {
		rows, err := stripTrailer(body)
		if err != nil {
			return 0, dur, nil, err
		}
		tr = &shardTrailer{}
		if err := json.Unmarshal(body[len(rows):], tr); err != nil {
			return 0, dur, nil, fmt.Errorf("%s: trailer: %w", e.key, err)
		}
		body = rows
	}
	return e.space.Size(), dur, tr, w.b.verify(e.key+"/"+format, body)
}

func (w *serveWarm) op(ctx context.Context, c, i int, tr *tracer) opResult {
	rq := w.seqs[c][i%len(w.seqs[c])]
	id := ""
	if tr != nil {
		id = strconv.FormatInt(w.nextID.Add(1), 10)
	}
	points, dur, trailer, err := w.post(ctx, rq, id)
	if tr != nil {
		tr.sample("serve.client_ms/"+id, float64(dur.Microseconds())/1000)
		if trailer != nil {
			tr.sample("sched.unique_sims", float64(trailer.UniqueSims))
		}
	}
	return opResult{points: points, dur: dur, err: err}
}

// phase brackets a traced phase with snapshots of the shared store.
func (w *serveWarm) phase(tr *tracer, start bool) {
	if start {
		w.phaseStart = w.cache.Snapshot()
		return
	}
	addCacheDelta(tr, w.phaseStart, w.cache.Snapshot())
}

func (w *serveWarm) replay(rt *tracer) (int, error) {
	// A warm service: one analysis memo and one store across requests,
	// filled by an unrecorded first pass.
	r := &replayer{b: w.b, analyses: dse.NewAnalysisCache(), store: simcache.New()}
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			r.rt = rt
		}
		for i, e := range w.cat {
			if err := r.run(i, replayOp{key: e.key, space: e.space, formats: serveFormats}); err != nil {
				return i, err
			}
		}
	}
	return len(w.cat), nil
}

func (w *serveWarm) layers(lt *tracer, m metricSet) {
	var handler, overhead []float64
	w.handler.Range(func(k, v any) bool {
		h := v.(float64)
		for _, c := range lt.series("serve.client_ms/" + k.(string)) {
			handler = append(handler, h)
			overhead = append(overhead, c-h)
		}
		return true
	})
	cacheLayers(lt, m)
	m.set("sched.unique_sims", median(lt.series("sched.unique_sims")))
	m.set("serve.handler_ms_p50", median(handler))
	m.set("serve.client_overhead_ms", median(overhead))
	if w.srv != nil {
		lt.note("serve_metrics_doc", w.srv.Doc())
	}
}

func (w *serveWarm) close() {
	if w.hs != nil {
		w.hs.Close()
		w.client.CloseIdleConnections()
		w.hs = nil
	}
}
