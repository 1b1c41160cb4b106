package main

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dse"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/simcache"
)

// sweepLayers are the span names whose self times make up the worker time
// of one sweep; everything else an operation spends is blocked time.
var sweepLayers = map[string]bool{
	"hls.analyze": true, "core.problem": true, "core.alloc": true,
	"scalarrepl.plan": true, "sched.sim": true, "hls.point": true, "dse.report": true,
}

// replayTask folds the replay's rows into this many task files for the
// shard encode/salvage/merge step.
const replayTasks = 4

// replayOp is one operation of a workload as the replay re-runs it: the
// space, the formats the workload renders it in, and the reference key
// prefix ("<prefix>/<format>").
type replayOp struct {
	key     string
	space   dse.Space // every axis populated
	formats []string
}

// replayer takes design points single-threaded through the public
// per-layer calls, the way the engine does internally:
// dse.AnalysisCache.Get (→ hls.Analyze on a miss) → core.NewProblemFrom +
// Allocate → scalarrepl.NewPlan → sched.Simulator.SimulateGraph behind a
// plan-level memo → reporter → shard encode/salvage/merge. The engine
// makes the middle calls inside hls.Analysis.EstimateSim, so their spans
// are the gaps between an Allocator decorator and a SimFunc: the gap before
// Allocate is NewProblemFrom, the gap between Allocate and the SimFunc is
// NewPlan, and what is left of the point is the area/clock models.
type replayer struct {
	b  *bench
	rt *tracer
	// analyses and store, when set, persist across operations (a warm
	// service); nil gives every operation fresh ones (a cold sweep).
	analyses *dse.AnalysisCache
	store    *simcache.Cache
}

// cursor is the end of the last observed layer boundary within a point.
type cursor struct {
	rt         *tracer
	op, parent int
	mark       int64
}

type timedAllocator struct {
	core.Allocator
	cur *cursor
}

func (a timedAllocator) Allocate(p *core.Problem) (*core.Allocation, error) {
	c := a.cur
	c.rt.record(c.op, c.parent, "core.problem", c.mark, c.rt.now())
	s := c.rt.begin(c.op, c.parent, "core.alloc")
	start := c.rt.now()
	res, err := a.Allocator.Allocate(p)
	c.mark = c.rt.now()
	c.rt.end(s)
	c.rt.sample("core.alloc/"+a.Name()+"_us", float64(c.mark-start)/1e3)
	return res, err
}

type simKey struct {
	kernel, plan, lat string
	ports             int
}

type simOutcome struct {
	res *sched.Result
	err error
}

func (r *replayer) run(op int, ro replayOp) error {
	rt := r.rt
	root := rt.begin(op, -1, "op")
	defer rt.end(root)
	ac, store := r.analyses, r.store
	if ac == nil {
		ac, store = dse.NewAnalysisCache(), simcache.New()
	}
	sim := &sched.Simulator{Cache: store}
	memo := map[simKey]simOutcome{}
	analyses := map[string]*hls.Analysis{}
	var results []dse.Result
	for _, p := range ro.space.Points() {
		an := analyses[p.Kernel.Name]
		if an == nil {
			s := rt.begin(op, root, "hls.analyze")
			var err error
			an, err = ac.Get(p.Kernel, store)
			rt.end(s)
			if err != nil {
				return fmt.Errorf("%s: analyze %s: %w", ro.key, p.Kernel.Name, err)
			}
			analyses[p.Kernel.Name] = an
		}
		results = append(results, r.point(op, root, an, p, sim, memo))
	}
	rt.sample("sched.unique_sims", float64(len(memo)))

	for _, f := range ro.formats {
		out, err := render(f, ro.space, results, reportTracer{rt, op, root})
		if err != nil {
			return err
		}
		rt.sample("dse.renders", 1)
		if err := r.b.verify(ro.key+"/"+f, out); err != nil {
			return fmt.Errorf("replay rows differ from the workload's: %w", err)
		}
	}
	return r.shardRoundTrip(op, root, ro, results)
}

func (r *replayer) point(op, root int, an *hls.Analysis, p dse.Point, sim *sched.Simulator, memo map[simKey]simOutcome) dse.Result {
	rt := r.rt
	ps := rt.begin(op, root, "hls.point")
	defer rt.end(ps)
	cur := &cursor{rt: rt, op: op, parent: ps, mark: rt.now()}
	simFn := func(_ hls.SimCtx, nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg sched.Config) (*sched.Result, error) {
		rt.record(op, ps, "scalarrepl.plan", cur.mark, rt.now())
		s := rt.begin(op, ps, "sched.sim")
		key := simKey{kernel: p.Kernel.Name, plan: plan.Fingerprint(), lat: cfg.Lat.Fingerprint(), ports: cfg.PortsPerRAM}
		o, ok := memo[key]
		if !ok {
			o.res, o.err = sim.SimulateGraph(nest, g, plan, cfg)
			memo[key] = o
		}
		rt.end(s)
		rt.sample("sched.sim_calls", 1)
		cur.mark = rt.now()
		return o.res, o.err
	}
	opt := p.Options()
	if pf, ok := p.Allocator.(dse.Portfolio); ok {
		algs := make([]core.Allocator, len(pf.Allocators))
		for i, a := range pf.Allocators {
			algs[i] = timedAllocator{a, cur}
		}
		d, err := an.EstimatePortfolio(algs, opt, simFn)
		return dse.Result{Point: p, Design: d, Err: err}
	}
	d, err := an.EstimateSim(timedAllocator{p.Allocator, cur}, opt, simFn)
	return dse.Result{Point: p, Design: d, Err: err}
}

// shardRoundTrip encodes the rows as strided task files, salvages each and
// reassembles them, then checks the reassembled set renders to the
// reference CSV.
func (r *replayer) shardRoundTrip(op, root int, ro replayOp, results []dse.Result) error {
	rt := r.rt
	spec := dse.Spec(ro.space)
	files := make([][]byte, replayTasks)
	for t := range files {
		var owned []int
		var rows []dse.Result
		for i := t; i < len(results); i += replayTasks {
			owned = append(owned, results[i].Point.Index)
			rows = append(rows, results[i])
		}
		var buf bytes.Buffer
		s := rt.begin(op, root, "shard.encode")
		err := feed(shard.NewTaskWriter(&buf, owned), ro.space, rows)
		rt.end(s)
		if err != nil {
			return fmt.Errorf("shard encode: %w", err)
		}
		files[t] = buf.Bytes()
	}
	pieces := make([]*shard.Salvaged, len(files))
	for t, f := range files {
		s := rt.begin(op, root, "shard.salvage")
		sv, err := shard.Salvage(bytes.NewReader(f))
		rt.end(s)
		if err != nil {
			return fmt.Errorf("shard salvage: %w", err)
		}
		pieces[t] = sv
	}
	s := rt.begin(op, root, "shard.merge")
	rs, err := assemble(spec, pieces)
	rt.end(s)
	if err != nil {
		return fmt.Errorf("shard merge: %w", err)
	}
	out, err := render("csv", rs.Space, rs.Results, reportTracer{})
	if err != nil {
		return err
	}
	if err := r.b.verify(ro.key+"/csv", out); err != nil {
		return fmt.Errorf("reassembled rows differ: %w", err)
	}
	return nil
}

func assemble(spec dse.SpaceSpec, pieces []*shard.Salvaged) (*dse.ResultSet, error) {
	asm, err := shard.NewAssembler(spec)
	if err != nil {
		return nil, err
	}
	for _, p := range pieces {
		if _, err := asm.Absorb(p); err != nil {
			return nil, err
		}
	}
	return asm.ResultSet()
}

// reportTracer names where a timed reporter records its spans; the zero
// value records nothing.
type reportTracer struct {
	rt         *tracer
	op, parent int
}

// timedReporter is a StreamReporter decorator recording one "dse.report"
// span per call.
type timedReporter struct {
	dse.StreamReporter
	at reportTracer
}

func (t timedReporter) Begin(sp dse.Space, total int) error {
	s := t.at.rt.begin(t.at.op, t.at.parent, "dse.report")
	defer t.at.rt.end(s)
	return t.StreamReporter.Begin(sp, total)
}

func (t timedReporter) Point(r dse.Result) error {
	s := t.at.rt.begin(t.at.op, t.at.parent, "dse.report")
	defer t.at.rt.end(s)
	return t.StreamReporter.Point(r)
}

func (t timedReporter) End(st dse.StreamStats) error {
	s := t.at.rt.begin(t.at.op, t.at.parent, "dse.report")
	defer t.at.rt.end(s)
	return t.StreamReporter.End(st)
}

// render streams results through the format's reporter ("ndjson" is the
// one-shard encoding `dse serve` answers with, trailer stripped).
func render(format string, sp dse.Space, results []dse.Result, at reportTracer) ([]byte, error) {
	var buf bytes.Buffer
	var sr dse.StreamReporter
	if format == "ndjson" {
		sr = shard.NewWriter(&buf, shard.Plan{Index: 0, Count: 1})
	} else {
		rep, err := dse.RendererFor(format)
		if err != nil {
			return nil, err
		}
		sr = rep.Stream(&buf)
	}
	if err := feed(timedReporter{sr, at}, sp, results); err != nil {
		return nil, fmt.Errorf("render %s: %w", format, err)
	}
	if format == "ndjson" {
		return stripTrailer(buf.Bytes())
	}
	return buf.Bytes(), nil
}

func feed(sr dse.StreamReporter, sp dse.Space, results []dse.Result) error {
	if err := sr.Begin(sp, len(results)); err != nil {
		return err
	}
	st := dse.StreamStats{Points: len(results)}
	for _, r := range results {
		if !r.Ok() {
			st.Failed++
		}
		if err := sr.Point(r); err != nil {
			return err
		}
	}
	return sr.End(st)
}

// layerPerOp is each layer's replay self time per operation (ms), with
// dse.report per rendering: an operation renders its rows once, the replay
// renders them in every format the workload uses.
func layerPerOp(rt *tracer, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	out := map[string]float64{}
	for k, v := range rt.selfByName() {
		out[k] = v / n
	}
	out["dse.report"] *= n / max(rt.sum("dse.renders"), 1)
	return out
}

// replayLayers turns the replay's spans into the per-operation layer rows.
func replayLayers(rt *tracer, ops int, m metricSet) {
	n := float64(max(ops, 1))
	self := layerPerOp(rt, ops)
	count := func(name string) float64 { return float64(len(rt.durations(name))) / n }
	m.set("hls.analyze_ms", self["hls.analyze"])
	m.set("hls.analyze_calls", count("hls.analyze"))
	m.set("core.alloc_ms", self["core.alloc"])
	m.set("core.alloc_calls", count("core.alloc"))
	m.set("core.alloc_cpara_us_p50", median(rt.series("core.alloc/CPA-RA_us")))
	m.set("scalarrepl.plan_ms", self["scalarrepl.plan"])
	m.set("scalarrepl.plan_calls", count("scalarrepl.plan"))
	m.set("sched.sim_ms", self["sched.sim"])
	m.set("sched.sim_calls", rt.sum("sched.sim_calls")/n)
	m.set("dse.report_ms", self["dse.report"])
	m.set("shard.encode_ms", self["shard.encode"])
	m.set("shard.salvage_ms", self["shard.salvage"])
	m.set("shard.merge_ms", self["shard.merge"])
	var names []string
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		rt.note("replay_self_ms_per_op/"+k, self[k])
	}
}
