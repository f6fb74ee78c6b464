// Command attritionbench is the repository's benchmark. It serves
// attritiond in-process (stability.NewServer behind an http.Server on a
// 127.0.0.1:0 listener), drives one workload against it from the same
// process over at most two connections, checks every output exactly
// against a sequential Monitor replay, and prints one JSON line:
//
//	bash _attritionbench/run.sh --workload ingest --seed 1 --seconds 40 --trace 0
//
// Workloads (README.md in this directory gives their configuration and
// the layer-to-metric map):
//
//   - ingest: 2 closed-loop writers replay the feed as POST /v1/receipts
//     batches, month-phased; the HTTP write path does the work.
//   - restart: a follow-mode daemon restarts with a state file over a
//     pre-written STB1 chain, catches up, tails live appends, stops.
//
// Every episode ends with a closed-loop sweep of POST /v1/stability:batch
// queries of 200 ids, cycling over the population of the drained daemon.
//
// --trace 0 prints the end-to-end metrics (and logs the tail latencies,
// alert lag and shutdown time on stderr); --trace 1 runs the same
// episodes traced plus one pass per layer through its public entry point
// and prints the per-layer ledger. Inputs come from --seed; the same seed
// gives the same inputs. Any failed check makes the run exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds one run, teardown included, well inside the 180 s a
// run may take.
const runDeadline = 160 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// root holds the run's work directory and the trace output.
	root string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("attritionbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "ingest or restart")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 40, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want ingest or restart)", o.workload)
	}
	if o.seconds < 1 || trace < 0 || trace > 1 {
		return o, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	o.trace = trace == 1
	o.root = ".bench_build"
	return o, nil
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(stderr, "attritionbench:", err)
		return 2
	}
	// A signal, or the pipe to whoever reads the output closing, stops the
	// run through the same teardown as its deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer stop()
	res, err := run(ctx, o, workloads[o.workload], stderr)
	if err != nil {
		fmt.Fprintln(stderr, "attritionbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "attritionbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run prepares the inputs, measures, and tears everything down on every
// path: episodes stop their daemons on return, and the work directory is
// removed before run returns.
func run(ctx context.Context, o options, w workload, log io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	if err := os.MkdirAll(o.root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	prepStart := now()
	in, feed, err := prepare(w, o.seed, dir, o.trace)
	if err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}
	defer in.close()
	ref, err := replay(in, feed, o.trace)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s seed %d: %d customers, %d receipts, %d alerts, %d scored windows; inputs ready in %v\n",
		w.name, o.seed, len(in.ids), len(feed), len(ref.alerts), ref.windows, now().Sub(prepStart).Round(time.Millisecond))
	b := &bench{w: w, in: in, ref: ref, dir: dir, log: log}
	if o.trace {
		return b.runTraced(ctx, o, feed)
	}
	feed = nil // the daemon's heap is measured without the feed on it
	return b.runUntraced(ctx, o)
}

// runUntraced runs the boot probes, then repeats episodes for --seconds,
// at least minEpisodes times and until POSTs and queries each number
// w.minSamples. It reports medians over the episodes (setup_s: over the
// probes) and POST and query percentiles over all the run's samples.
func (b *bench) runUntraced(ctx context.Context, o options) (*result, error) {
	start := now()
	steal0, total0, stealOK := cpuTimes()
	for i := 0; i < b.w.setupProbes; i++ {
		if err := b.setupProbe(ctx); err != nil {
			return nil, err
		}
	}
	for ep := 0; ; ep++ {
		if err := b.episode(ctx, ep == 0); err != nil {
			if !isCheck(err) {
				return nil, err
			}
			b.fail(err)
			break
		}
		if b.col.failed > 0 {
			break
		}
		c := &b.col
		fmt.Fprintf(b.log, "episode %d: %.0f receipts/s, shutdown %.1fms, heap %.2fMiB, alert lag p50/p99 %.1f/%.1fms\n",
			ep, c.rate[len(c.rate)-1], 1e3*c.shutdown[len(c.shutdown)-1], c.heap[len(c.heap)-1], last(c.lag.p50), last(c.lag.p99))
		if ep+1 >= minEpisodes && now().Sub(start) >= time.Duration(o.seconds)*time.Second &&
			len(c.post) >= b.w.minSamples && len(c.query) >= b.w.minSamples {
			break
		}
	}
	c := &b.col
	// On a shared VM the figures move with the CPU time the hypervisor
	// takes; the log shows how much it took during this run.
	if steal1, total1, ok := cpuTimes(); ok && stealOK && total1 > total0 {
		fmt.Fprintf(b.log, "host: %.1f%% of CPU time stolen while measuring\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	fmt.Fprintf(b.log, "%s: %d episodes, %d boot probes; samples: %d posts, %d queries, %d alert barriers\n",
		b.w.name, len(c.shutdown), len(c.setup), len(c.post), len(c.query), c.lag.n)
	// Logged, not reported: on a shared 2-vCPU VM these move with the CPU
	// time the hypervisor takes, from run to run, further than the largest
	// bound a reported metric may have (README.md gives the figures).
	fmt.Fprintf(b.log, "logged only: post_p99 %.3fms, query_p99 %.3fms, alert_lag_p50 %.2fms, alert_lag_p99 %.2fms, shutdown %.2fms\n",
		quantile(c.post, 0.99), quantile(c.query, 0.99), median(c.lag.p50), median(c.lag.p99), 1e3*median(c.shutdown))
	m := map[string]metric{
		"setup_s":        {median(c.setup), "s"},
		"receipts_per_s": {median(c.rate), "receipts/s"},
		"post_p50_ms":    {quantile(c.post, 0.5), "ms"},
		"query_p50_ms":   {quantile(c.query, 0.5), "ms"},
		"heap_mb":        {median(c.heap), "MiB"},
	}
	return b.result(m), nil
}

// minEpisodes is the fewest episodes a run reports medians over.
const minEpisodes = 3

// result assembles the output; a metric without samples is a failure.
func (b *bench) result(m map[string]metric) *result {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			b.fail(fmt.Errorf("metric %s has no samples", name))
			v.Value = 0
			m[name] = v
		}
		fmt.Fprintf(b.log, "  %-40s %14.6g %s\n", name, v.Value, v.Unit)
	}
	return &result{
		Correct:   b.col.failed == 0,
		Attempted: max(b.col.attempted, 1),
		Failed:    b.col.failed,
		Metrics:   m,
	}
}

// runTraced runs rounds of an untraced episode, the same episode traced,
// and the layer passes, for --seconds, and reports each per-layer metric's
// median over the rounds. The spans are written out when the run ends.
func (b *bench) runTraced(ctx context.Context, o options, feed []receipt) (*result, error) {
	p := newPassInputs(b.in, b.ref, feed)
	tr := newTracer()
	var rounds []ledger
	attempted, failed := 0, 0
	start := now()
	for r := 0; ; r++ {
		lg := ledger{"serve.failed": 0}
		b.col = collector{}
		if err := b.episode(ctx, r == 0); err != nil {
			return nil, err
		}
		untraced := b.headline()
		attempted, failed = attempted+b.col.attempted, failed+b.col.failed

		b.col = collector{}
		b.tr = tr
		mark := tr.mark()
		chain := b.in.chain
		if !b.w.follow {
			chain = filepath.Join(b.dir, "journal.stb")
			b.keepJournal = chain
		}
		err := b.episode(ctx, false)
		b.keepJournal = ""
		if err != nil {
			return nil, err
		}
		c := &b.col
		attempted, failed = attempted+c.attempted, failed+c.failed
		lg["trace.overhead_pct"] = 100 * (b.headline() - untraced) / untraced
		lg["serve.failed"] += float64(c.failed)
		lg["http.self_ms"] = median(tr.httpSelf(mark))
		lg["generator.late_p99_ms"] = quantile(c.late, 0.99)
		lg["stream.ingestor.queue_depth_max"] = maxOf(c.depth)
		lg["stream.ingestor.queue_wait_ms"] = mean(c.depth) * ms(c.depthFor) / float64(c.arrivals)

		ops, bad, err := b.layerPasses(ctx, p, chain, lg)
		if err != nil {
			return nil, err
		}
		attempted, failed = attempted+ops, failed+bad
		b.tr = nil
		rounds = append(rounds, lg)
		if now().Sub(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
	}
	path := filepath.Join(o.root, fmt.Sprintf("trace-%s-seed%d.jsonl", b.w.name, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "%s: %d traced rounds, spans in %s\n", b.w.name, len(rounds), path)
	b.col = collector{attempted: attempted, failed: failed}
	m := make(map[string]metric)
	for _, l := range perLayer {
		vals := make([]float64, len(rounds))
		for i, lg := range rounds {
			vals[i] = lg[l.name]
		}
		m[l.name] = metric{median(vals), l.unit}
	}
	return b.result(m), nil
}

// headline is the episode's end-to-end figure the tracing overhead is
// measured on: the time it took per receipt.
func (b *bench) headline() float64 { return 1 / median(b.col.rate) }

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[len(xs)-1]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// perLayer is the per-layer ledger, in BENCHMARK.json's order.
var perLayer = []struct{ name, unit string }{
	{"serve.ingest_busy_ms", "ms"},
	{"serve.ingest_self_ms", "ms"},
	{"serve.bytes_in", "bytes"},
	{"serve.query_busy_ms", "ms"},
	{"serve.query_self_ms", "ms"},
	{"serve.bytes_out", "bytes"},
	{"serve.failed", "count"},
	{"http.self_ms", "ms"},
	{"stream.ingestor.enqueue_blocked_ms", "ms"},
	{"stream.ingestor.queue_depth_max", "batches"},
	{"stream.ingestor.queue_wait_ms", "ms"},
	{"stream.ingestor.self_ms", "ms"},
	{"stream.ingestor.stabilities_ms", "ms"},
	{"stream.sharded.ingest_ms", "ms"},
	{"stream.sharded.close_ms", "ms"},
	{"stream.sharded.close_max_ms", "ms"},
	{"stream.sharded.self_ms", "ms"},
	{"stream.monitor.ingest_ms", "ms"},
	{"stream.monitor.close_ms", "ms"},
	{"stream.monitor.self_ms", "ms"},
	{"stream.monitor.windows", "count"},
	{"stream.monitor.alerts", "count"},
	{"core.observe_ms", "ms"},
	{"core.observe_calls", "count"},
	{"core.repertoire_mean", "items"},
	{"stream.persist.read_ms", "ms"},
	{"stream.persist.write_ms", "ms"},
	{"stream.persist.state_bytes", "bytes"},
	{"store.poll_ms", "ms"},
	{"store.write_ms", "ms"},
	{"store.bytes", "bytes"},
	{"generator.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}
