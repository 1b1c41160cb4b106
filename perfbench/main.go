// Command perfbench is the repository's end-to-end benchmark: one process
// runs one named workload (cli_cold, serve_warm or fleet_remote) for a
// fixed number of seconds, checks every operation's output bytes against a
// reference, and prints one JSON result line. With -trace 1 it instead runs
// the workload with outside-the-program spans and a single-threaded layer
// replay and prints the per-layer metrics. See README.md for the metric
// definitions and the prediction table.
//
// Usage:
//
//	perfbench -workload cli_cold -seed 1 -seconds 10 -trace 0
//	perfbench -write-refs refs.json     # regenerate the default-seed digests
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the seed whose reference digests are committed in
// refs.json; every other seed computes its references before timing.
const defaultSeed = 1

// A run builds its workload from scratch for setupWindow, and at least
// minSetupRounds times; setup_s is the median round. The host's speed
// changes from second to second, so rounds packed into a sub-second window
// (fleet_remote's take about a millisecond) share one speed, and their
// median moved by up to 29% between runs.
const (
	setupWindow    = 4 * time.Second
	minSetupRounds = 9
)

// scratchDir holds each run's temporary directories, inside the checkout.
var scratchDir = filepath.Join(".bench_build", "scratch")

//go:embed refs.json
var committedRefs []byte

// workload is one benchmarked usage of the program. A run calls setup
// repeatedly (each round discards the previous instance), then drives op
// from clients() closed-loop callers.
type workload interface {
	// inputs derives the workload's inputs from the seed.
	inputs(seed int64) error
	// references computes the expected output digests on the program's
	// NoSimCache, single-worker path, keyed like op's verification keys.
	references() (map[string]string, error)
	// setup is one timed set-up round; the previous round's instance is
	// closed, and garbage collected, before the clock starts.
	setup() error
	clients() int
	// op runs caller c's i-th operation and reports its own latency
	// (verification and clean-up excluded). tr is nil outside traced phases.
	op(ctx context.Context, c, i int, tr *tracer) opResult
	// replay runs the workload's operations single-threaded through the
	// public per-layer calls, recording spans on rt, and checks the rows
	// against the references.
	replay(rt *tracer) (ops int, err error)
	// layers adds the workload's per-layer metrics recorded on the traced
	// phases' tracer.
	layers(lt *tracer, m metricSet)
	close()
}

// warmer is implemented by workloads with untimed preparation after the
// set-up rounds and before the timed loop.
type warmer interface {
	warm() error
}

// opResult is the outcome of one timed operation.
type opResult struct {
	points int
	dur    time.Duration
	err    error
}

type bench struct {
	seed  int64
	nproc int
	tmp   string // scratch directory inside the checkout
	refs  map[string]string
}

func (b *bench) verify(key string, out []byte) error {
	want, ok := b.refs[key]
	if !ok {
		return fmt.Errorf("no reference for %s", key)
	}
	if got := digest(out); got != want {
		return fmt.Errorf("%s: output digest %s, reference %s", key, got[:12], want[:12])
	}
	return nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// stripTrailer drops the last line of a shard/task encoding: its cache and
// obs snapshots legitimately vary between runs, the header and rows do not.
func stripTrailer(b []byte) ([]byte, error) {
	b = bytes.TrimSuffix(b, []byte("\n"))
	i := bytes.LastIndexByte(b, '\n')
	if i < 0 || !bytes.Contains(b[i:], []byte(`"eof":true`)) {
		return nil, fmt.Errorf("ndjson response has no trailer")
	}
	return b[:i+1], nil
}

func newWorkload(name string, b *bench) (workload, error) {
	switch name {
	case "cli_cold":
		return &cliCold{b: b}, nil
	case "serve_warm":
		return &serveWarm{b: b}, nil
	case "fleet_remote":
		return &fleetRemote{b: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cli_cold, serve_warm or fleet_remote)", name)
}

var workloadNames = []string{"cli_cold", "serve_warm", "fleet_remote"}

// metricSet is one result line's metric map. Names and units are those of
// BENCHMARK.json, read by loadMetricSpecs.
type metricSet map[string]metric

var (
	units         = map[string]string{}
	endToEndNames []string
	perLayerNames []string
)

// loadMetricSpecs reads the metric names and units from BENCHMARK.json at
// the repository root, the directory the benchmark runs from.
func loadMetricSpecs() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range spec.EndToEnd {
		endToEndNames = append(endToEndNames, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
		units[m.Name] = m.Unit
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in BENCHMARK.json")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// only checks that m holds exactly the named metrics. With fill, a metric
// the workload did not set (a layer it does not exercise) reads 0.
func (m metricSet) only(names []string, fill bool) error {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
		if _, ok := m[n]; !ok {
			if !fill {
				return fmt.Errorf("metric %s not measured", n)
			}
			m.set(n, 0)
		}
	}
	for n := range m {
		if !want[n] {
			return fmt.Errorf("metric %s is not in this section of BENCHMARK.json", n)
		}
	}
	return nil
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workloadFlag := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision, recorded with the host facts")
	writeRefs := flag.String("write-refs", "", "compute the default-seed reference digests and write them to this file")
	flag.Parse()

	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratchDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	b := &bench{seed: *seed, nproc: runtime.NumCPU(), tmp: tmp}

	if *writeRefs != "" {
		b.seed = defaultSeed
		return writeReferences(b, *writeRefs)
	}
	w, err := newWorkload(*workloadFlag, b)
	if err != nil {
		return err
	}
	if err := loadMetricSpecs(); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be ≥1 and -trace 0 or 1")
	}
	printHost(*workloadFlag, *seed, *commit)
	res, err := run(w, *workloadFlag, b, time.Duration(*seconds)*time.Second, *trace == 1)
	w.close()
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printHost(workload string, seed int64, commit string) {
	host := map[string]any{
		"workload": workload, "seed": seed, "commit": commit,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "go": runtime.Version(),
	}
	line, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(line))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadReferences(b *bench, w workload, name string) error {
	if b.seed == defaultSeed {
		var all map[string]map[string]string
		if err := json.Unmarshal(committedRefs, &all); err != nil {
			return fmt.Errorf("refs.json: %w", err)
		}
		if refs := all[name]; len(refs) > 0 {
			b.refs = refs
			return nil
		}
		return fmt.Errorf("refs.json has no digests for %s (regenerate with -write-refs)", name)
	}
	start := time.Now()
	refs, err := w.references()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	b.refs = refs
	fmt.Fprintf(os.Stderr, "perfbench: %d reference digests for seed %d in %.2fs\n", len(refs), b.seed, time.Since(start).Seconds())
	return nil
}

func writeReferences(b *bench, path string) error {
	all := map[string]map[string]string{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, b)
		if err != nil {
			return err
		}
		if err := w.inputs(b.seed); err != nil {
			return err
		}
		if all[name], err = w.references(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// run executes one workload: inputs, references, repeated set-ups, then
// the timed loop (untraced) or the alternating traced/untraced phases plus
// the layer replay (traced).
func run(w workload, name string, b *bench, dur time.Duration, traced bool) (*result, error) {
	if err := w.inputs(b.seed); err != nil {
		return nil, err
	}
	if err := loadReferences(b, w, name); err != nil {
		return nil, err
	}
	var setups []float64
	for t0 := time.Now(); len(setups) < minSetupRounds || time.Since(t0) < setupWindow; {
		w.close()
		settle()
		start := time.Now()
		err := w.setup()
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	if wm, ok := w.(warmer); ok {
		if err := wm.warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	m := metricSet{}
	if !traced {
		loop := runLoop(w, dur, nil)
		m.set("setup_s", median(setups))
		m.set("points_per_s", loop.pointsPerSec(w.clients()))
		m.set("latency_p50_ms", loop.p50())
		m.set("cpu_ms_per_point", loop.cpuMsPerPoint())
		m.set("peak_rss_mb", loop.peakRSSMB)
		m.set("ok_frac", loop.okFrac())
		fmt.Printf("operations %d; %d set-up rounds, quartiles %s s; points/s by block %s\n",
			len(loop.lat), len(setups), fmtList(quartiles(setups)), fmtList(loop.blockRates(w.clients())))
		if err := m.only(endToEndNames, false); err != nil {
			return nil, err
		}
		return &result{Correct: loop.failed == 0, Attempted: loop.ops, Failed: loop.failed, Metrics: m}, nil
	}

	// Traced run: four alternating phases, untraced first, so drift
	// affects both sides alike; then the layer replay.
	lt := newTracer()
	var plain, withTrace loopStats
	for p := 0; p < 4; p++ {
		if p%2 == 0 {
			plain.merge(runLoop(w, dur/4, nil))
		} else {
			withTrace.merge(runLoop(w, dur/4, lt))
		}
	}
	rt := newTracer()
	rops, rerr := w.replay(rt)
	if rerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: replay:", rerr)
	}
	all := plain
	all.merge(withTrace)
	replayLayers(rt, rops, m)
	w.layers(lt, m)
	workers := float64(b.nproc)
	wallMs := plain.p50()
	busy := printAccounting(name, rt, rops, wallMs, workers)
	m.set("dse.busy_frac", busy/(wallMs*workers))
	m.set("go.alloc_kb_per_point", plain.allocBytes/1024/float64(max(plain.points, 1)))
	m.set("go.gc_pause_ms", plain.gcPauseSec*1000/float64(max(plain.ops, 1)))
	m.set("obs.trace_overhead_frac", 1-withTrace.pointsPerSec(w.clients())/plain.pointsPerSec(w.clients()))
	tail, pct, beyond := plain.tail()
	m.set("latency_tail_ms", tail)
	fmt.Printf("latency_tail_ms = %.3f ms at p%.1f of the untraced phases (%d samples beyond it, n=%d)\n",
		tail, pct, beyond, len(plain.lat))
	if err := lt.write(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d-loop.jsonl", name, b.seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace file:", err)
	}
	if err := rt.write(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d-replay.jsonl", name, b.seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace file:", err)
	}
	if err := m.only(perLayerNames, true); err != nil {
		return nil, err
	}
	failed := all.failed
	if rerr != nil {
		failed++
	}
	return &result{Correct: failed == 0, Attempted: all.ops, Failed: failed, Metrics: m}, nil
}

// printAccounting lists each sweep layer's replay self time per operation
// and the blocked remainder of wall × workers, and returns Σ self.
func printAccounting(name string, rt *tracer, ops int, wallMs, workers float64) float64 {
	self := layerPerOp(rt, ops)
	var names []string
	for n := range self {
		if sweepLayers[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	total := wallMs * workers
	sum := 0.0
	fmt.Printf("accounting (%s, per operation): wall %.3f ms × %.0f workers = %.3f ms\n", name, wallMs, workers, total)
	for _, n := range names {
		v := self[n]
		sum += v
		fmt.Printf("  %-18s self %9.3f ms\n", n, v)
	}
	fmt.Printf("  %-18s      %9.3f ms\n", "blocked", total-sum)
	return sum
}

// settle collects garbage and returns freed memory, so a phase starts from
// a comparable heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// loopBlocks is how many equal time blocks a phase is cut into. Throughput
// and CPU per point are medians over the blocks: the host's CPUs are
// shared, and a burst of contention that slows a few blocks does not move
// a median as it moves a whole-phase mean.
const loopBlocks = 10

// loopStats aggregates one closed-loop phase.
type loopStats struct {
	lat        []float64 // per-operation latency, ms
	ops        int
	failed     int
	points     int
	blocks     []block // the phase's time blocks; an operation counts in the one it ended in
	allocBytes float64
	gcPauseSec float64
	peakRSSMB  float64 // resident high-water mark over the phase
}

type block struct {
	points int
	busy   time.Duration // Σ operation latency
	cpu    time.Duration // process user+sys over the block
}

func (l *loopStats) merge(o loopStats) {
	l.lat = append(l.lat, o.lat...)
	l.ops += o.ops
	l.failed += o.failed
	l.points += o.points
	l.blocks = append(l.blocks, o.blocks...)
	l.allocBytes += o.allocBytes
	l.gcPauseSec += o.gcPauseSec
	l.peakRSSMB = max(l.peakRSSMB, o.peakRSSMB)
}

// pointsPerSec is the median block's design points per second of caller
// time: with C closed-loop callers, C × points ÷ Σ latency — the loop's
// wall time without the benchmark's own verification and clean-up between
// operations.
func (l *loopStats) pointsPerSec(clients int) float64 { return median(l.blockRates(clients)) }

func (l *loopStats) blockRates(clients int) []float64 {
	var v []float64
	for _, b := range l.blocks {
		if b.points > 0 {
			v = append(v, float64(b.points)*float64(clients)/b.busy.Seconds())
		}
	}
	return v
}

func (l *loopStats) p50() float64 { return quantileSorted(sorted(l.lat), 0.5) }

// tail is the highest percentile with at least ten samples beyond it.
func (l *loopStats) tail() (v, pct float64, beyond int) {
	s := sorted(l.lat)
	if len(s) == 0 {
		return 0, 0, 0
	}
	// With ten samples or fewer no percentile qualifies; report the maximum.
	i := len(s) - 1
	if len(s) > 10 {
		i = len(s) - 11
	}
	return s[i], 100 * float64(i+1) / float64(len(s)), len(s) - 1 - i
}

// cpuMsPerPoint is the median block's process CPU per design point.
func (l *loopStats) cpuMsPerPoint() float64 {
	var v []float64
	for _, b := range l.blocks {
		if b.points > 0 {
			v = append(v, float64(b.cpu.Microseconds())/1000/float64(b.points))
		}
	}
	return median(v)
}

func (l *loopStats) okFrac() float64 {
	return float64(l.ops-l.failed) / float64(max(l.ops, 1))
}

// phaser is implemented by workloads that snapshot shared state around a
// traced phase.
type phaser interface {
	phase(tr *tracer, start bool)
}

// runLoop drives the workload from its callers until dur has elapsed; an
// operation started before the deadline always completes, in the last
// block. Caller c's operations are numbered 0, 1, … per caller.
func runLoop(w workload, dur time.Duration, tr *tracer) loopStats {
	clients := w.clients()
	ctx := context.Background()
	per := make([]loopStats, clients)
	for c := range per {
		per[c].blocks = make([]block, loopBlocks)
	}
	settle()
	resetPeakRSS()
	rt0 := readRuntime()
	ph, _ := w.(phaser)
	if ph != nil && tr != nil {
		ph.phase(tr, true)
	}
	start := time.Now()
	deadline := start.Add(dur)
	blockOf := func() int { return min(int(time.Since(start)*loopBlocks/dur), loopBlocks-1) }
	// cpuMarks[k] is the process CPU time when block k starts; the sampler
	// takes the marks between blocks.
	cpuMarks := make([]time.Duration, loopBlocks+1)
	cpuMarks[0] = cpuTime()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k < loopBlocks; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / loopBlocks)))
			cpuMarks[k] = cpuTime()
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			for time.Now().Before(deadline) {
				r := w.op(ctx, c, st.ops, tr)
				b := &st.blocks[blockOf()]
				st.ops++
				b.busy += r.dur
				st.lat = append(st.lat, float64(r.dur.Microseconds())/1000)
				if r.err != nil {
					st.failed++
					fmt.Fprintln(os.Stderr, "perfbench: operation failed:", r.err)
					continue
				}
				st.points += r.points
				b.points += r.points
			}
		}(c)
	}
	wg.Wait()
	cpuMarks[loopBlocks] = cpuTime()
	if ph != nil && tr != nil {
		ph.phase(tr, false)
	}
	var out loopStats
	out.blocks = make([]block, loopBlocks)
	for _, st := range per {
		out.lat = append(out.lat, st.lat...)
		out.ops += st.ops
		out.failed += st.failed
		out.points += st.points
		for k, b := range st.blocks {
			out.blocks[k].points += b.points
			out.blocks[k].busy += b.busy
		}
	}
	for k := range out.blocks {
		out.blocks[k].cpu = cpuMarks[k+1] - cpuMarks[k]
	}
	rt1 := readRuntime()
	out.allocBytes = rt1.allocBytes - rt0.allocBytes
	out.gcPauseSec = rt1.gcPauseSec - rt0.gcPauseSec
	out.peakRSSMB = peakRSSMB()
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the process's resident high-water mark to its current
// resident size (Linux clear_refs "5"), so peakRSSMB reads the peak since.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: resetting the RSS high-water mark:", err)
	}
}

// peakRSSMB is the resident high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantileSorted(sorted(v), 0.5) }

func quartiles(v []float64) []float64 {
	s := sorted(v)
	return []float64{quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)}
}

// quantileSorted interpolates linearly between the closest ranks.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, ",")
}
