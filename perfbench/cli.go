package main

import (
	"bytes"
	"context"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/simcache"
)

var cliFormats = []string{"table", "csv", "json"}

// cliCold is what a `dse` user pays on every invocation: one caller
// repeatedly explores the stock 192-point space, each time on a fresh
// engine (cold caches) with workers = nproc and the CLI's always-on obs
// registry, rendering the rows in a seed-chosen format.
type cliCold struct {
	b       *bench
	sp      dse.Space
	formats []string // format of sweep i is formats[i%len]
}

func (w *cliCold) inputs(seed int64) error {
	w.sp = dse.DefaultSpace()
	w.formats = balancedFormats(rand.New(rand.NewSource(seed)), cliFormats, 64)
	return nil
}

// balancedFormats returns blocks of seed-shuffled format permutations, so
// every seed renders each format equally often.
func balancedFormats(rng *rand.Rand, formats []string, blocks int) []string {
	var out []string
	for i := 0; i < blocks; i++ {
		for _, j := range rng.Perm(len(formats)) {
			out = append(out, formats[j])
		}
	}
	return out
}

func (w *cliCold) references() (map[string]string, error) {
	return renderReferences("cli_cold", w.sp, cliFormats)
}

// renderReferences explores the space on the NoSimCache, single-worker
// path and digests every format's rendering.
func renderReferences(prefix string, sp dse.Space, formats []string) (map[string]string, error) {
	rs, err := dse.Engine{Workers: 1, NoSimCache: true}.Explore(sp)
	if err != nil {
		return nil, err
	}
	refs := map[string]string{}
	for _, f := range formats {
		rep, err := dse.RendererFor(f)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := rep.Report(&buf, rs); err != nil {
			return nil, err
		}
		refs[prefix+"/"+f] = digest(buf.Bytes())
	}
	return refs, nil
}

// setup is the untimed warm-up sweep.
func (w *cliCold) setup() error {
	return w.op(context.Background(), 0, 0, nil).err
}

func (w *cliCold) clients() int { return 1 }

func (w *cliCold) op(_ context.Context, _, i int, tr *tracer) opResult {
	format := w.formats[i%len(w.formats)]
	metrics := obs.New()
	eng := dse.Engine{Workers: w.b.nproc, Obs: metrics}
	sp := w.sp
	rep, err := dse.RendererFor(format)
	if err != nil {
		return opResult{err: err}
	}
	var buf bytes.Buffer
	var sr dse.StreamReporter = rep.Stream(&buf)
	var store *simcache.Cache
	root := -1
	if tr != nil {
		// Traced: a store the benchmark can snapshot, allocator and
		// reporter decorators inside the engine's worker pool.
		store = simcache.New()
		store.SetObs(metrics)
		eng.SimCache = store
		root = tr.begin(i, -1, "op")
		sp.Allocators = make([]core.Allocator, len(w.sp.Allocators))
		for j, a := range w.sp.Allocators {
			sp.Allocators[j] = spanAllocator{a, tr, i, root}
		}
		sr = timedReporter{sr, reportTracer{tr, i, root}}
	}
	start := time.Now()
	st, err := eng.ExploreStream(sp, dse.InstrumentReporter(sr, metrics, format))
	dur := time.Since(start)
	tr.end(root)
	if err != nil {
		return opResult{dur: dur, err: err}
	}
	if tr != nil {
		addCacheDelta(tr, simcache.Snapshot{}, store.Snapshot())
		tr.sample("sched.unique_sims", float64(st.UniqueSims))
		tr.note("obs_snapshot_last_sweep", st.Obs)
	}
	return opResult{points: st.Points, dur: dur, err: w.b.verify("cli_cold/"+format, buf.Bytes())}
}

// spanAllocator records one "core.alloc" span per Allocate call made by the
// engine's workers.
type spanAllocator struct {
	core.Allocator
	tr         *tracer
	op, parent int
}

func (a spanAllocator) Allocate(p *core.Problem) (*core.Allocation, error) {
	s := a.tr.begin(a.op, a.parent, "core.alloc")
	defer a.tr.end(s)
	return a.Allocator.Allocate(p)
}

// addCacheDelta accumulates the lookups between two snapshots of a store,
// by tier, on the tracer's cache series.
func addCacheDelta(tr *tracer, before, after simcache.Snapshot) {
	d := after.Sub(before)
	tr.sample("cache.frag.hit", float64(d.EntryHits+d.EntryDiskHits+d.EntryRemoteHits))
	tr.sample("cache.frag.lookup", float64(d.EntryHits+d.EntryDiskHits+d.EntryRemoteHits+d.EntryMisses))
	tr.sample("cache.class.hit", float64(d.ClassHits+d.ClassDiskHits+d.ClassRemoteHits))
	tr.sample("cache.class.lookup", float64(d.ClassHits+d.ClassDiskHits+d.ClassRemoteHits+d.ClassMisses))
	tr.sample("cache.analysis.hit", float64(d.AnalysisHits+d.AnalysisDiskHits+d.AnalysisRemoteHits))
	tr.sample("cache.analysis.lookup", float64(d.AnalysisHits+d.AnalysisDiskHits+d.AnalysisRemoteHits+d.AnalysisMisses))
}

// cacheLayers sets the hit-ratio rows (base: lookups) from the tracer's
// cache series.
func cacheLayers(tr *tracer, m metricSet) {
	for _, k := range []string{"frag", "class", "analysis"} {
		m.set("simcache."+k+"_hit_ratio", tr.sum("cache."+k+".hit")/max(tr.sum("cache."+k+".lookup"), 1))
	}
}

func (w *cliCold) replay(rt *tracer) (int, error) {
	r := &replayer{b: w.b, rt: rt}
	const ops = 3
	for i := 0; i < ops; i++ {
		if err := r.run(i, replayOp{key: "cli_cold", space: w.sp, formats: cliFormats}); err != nil {
			return i, err
		}
	}
	return ops, nil
}

func (w *cliCold) layers(lt *tracer, m metricSet) {
	cacheLayers(lt, m)
	m.set("sched.unique_sims", median(lt.series("sched.unique_sims")))
}

func (w *cliCold) close() {}
