// Command v6bench is the repository's end-to-end benchmark. It runs one
// named workload through the system's public entry points for a fixed
// time, checks the outputs against byte-identity oracles, and prints
// the result as one JSON object on the last line of standard output:
//
//	v6bench --workload mini-campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics taken from spans the
// benchmark records around its calls into each layer (written to
// <workdir>/trace-<workload>-<seed>.json). BENCHMARK.json at the
// repository root lists both sets; run.sh builds and runs this command
// from a checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"v6web/internal/shard"
)

func main() {
	// The sharded workload re-executes this binary as its workers.
	shard.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("v6bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fl.Int64("seed", 0, "campaign seed, passed to the program as -set seed=N (default: the pack's own seed)")
		seconds = fl.Float64("seconds", 10, "how long to run iterations of the workload")
		trace   = fl.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		workdir = fl.String("workdir", ".bench_build/work", "directory for campaign data and traces")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "v6bench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	seeded := false
	fl.Visit(func(f *flag.Flag) { seeded = seeded || f.Name == "seed" })
	opt := options{
		seed: *seed, seeded: seeded, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, minIters: 3, workdir: *workdir,
	}
	if opt.trace {
		opt.minIters = 4
	}
	res, err := execute(context.Background(), w, opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "v6bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "v6bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
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

// execute runs the workload and assembles its result. Before the
// result it prints one line recording the host, the workload's inputs,
// its CSV digests, and the figures that BENCHMARK.json does not gate.
func execute(ctx context.Context, w workload, opt options, stdout io.Writer) (*result, error) {
	b, err := newBench(w, opt)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	if err := b.run(ctx); err != nil {
		return nil, err
	}
	// The peak is read before the cross-mode oracle, whose reference
	// campaign is not part of the workload.
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	if err := b.crossCheck(ctx); err != nil {
		return nil, err
	}
	attempted := b.attempts + b.cl.attempted
	failed := b.failures + b.cl.failed
	lat, liveLat := latencies(b.warm), latencies(b.live)
	all := map[string]float64{
		"setup_s":        median(b.setup),
		"setup_wall_s":   median(b.setupWall),
		"campaign_s":     median(b.campaign),
		"campaign_cpu_s": median(b.campaignCPU),
		"report_s":       median(b.report),
		"report_cpu_s":   median(b.reportCPU),
		"resume_ready_s": median(b.ready),
		"resume_cpu_s":   median(b.readyCPU),
		"warm_rps":       float64(served(b.warm)) / b.warmBusy.Seconds(),
		"peak_rss_mb":    rss,
		"failed_frac":    ratio(float64(failed), float64(attempted)),
		"iterations":     float64(len(b.campaign)),
	}
	tails := []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"warm_p50_ms", lat, 0.5}, {"warm_p90_ms", lat, 0.9}, {"warm_p99_ms", lat, 0.99},
		{"live_p50_ms", liveLat, 0.5}, {"live_p99_ms", liveLat, 0.99},
		{"publish_p50_ms", b.publish, 0.5}, {"publish_p90_ms", b.publish, 0.9},
	}
	for _, tl := range tails {
		if w.mode != live && (strings.HasPrefix(tl.name, "publish") || strings.HasPrefix(tl.name, "live")) {
			continue
		}
		v, err := percentile(tl.samples, tl.q)
		if err != nil && !opt.tiny {
			// At full scale every tail must be backed by samples; a
			// smoke-scale run is too short for the far ones.
			return nil, fmt.Errorf("%s: %w", tl.name, err)
		}
		all[tl.name] = v
	}

	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	if opt.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{median(b.layer[m.name]), m.unit}
		}
		res.Metrics["daemon.publish_p50_ms"] = metric{all["publish_p50_ms"], "ms"}
		res.Metrics["daemon.publish_p90_ms"] = metric{all["publish_p90_ms"], "ms"}
		res.Metrics["daemon.version_lag_ms"] = metric{median(b.versionLag), "ms"}
		res.Metrics["daemon.serve_lag_ms"] = metric{median(b.serveLag), "ms"}
		res.Metrics["http.warm_bytes_per_req"] = metric{warmBytesPerReq(b.warm), "bytes"}
		res.Metrics["trace.overhead"] = metric{ratio(median(b.campaignTraced), median(b.campaignPlain)), "ratio"}
		path := filepath.Join(opt.workdir, fmt.Sprintf("trace-%s-%d.json", w.name, b.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{all[m.name], m.unit}
		}
	}
	extra := make(map[string]float64)
	for name, v := range all {
		if _, gated := res.Metrics[name]; !gated {
			extra[name] = v
		}
	}
	rec := map[string]any{
		"workload": map[string]any{"name": w.name, "mode": w.mode.String(), "pack": w.pack, "sets": b.sets, "seed": b.seed},
		"host":     hostRecord(b.cl.maxConns),
		"digests":  b.digests,
		"extra":    extra,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

func latencies(reqs []request) []float64 {
	out := make([]float64, len(reqs))
	for i, rq := range reqs {
		out[i] = rq.lat
	}
	return out
}

// served counts the requests that got a 200.
func served(reqs []request) int {
	n := 0
	for _, rq := range reqs {
		if !math.IsInf(rq.lat, 1) {
			n++
		}
	}
	return n
}

func warmBytesPerReq(reqs []request) float64 {
	n := 0
	for _, rq := range reqs {
		n += rq.bytes
	}
	return ratio(float64(n), float64(len(reqs)))
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Set-up and the
// compute-bound phases are gated on CPU seconds: on a shared 2-vCPU
// guest their wall times move with the CPU time the host steals, while
// their CPU times move with the work done. The wall times are printed
// beside them, ungated, so a change that only adds waiting (rounds run
// serially, lock contention, fsync) shows there and in no gated figure.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_cpu_s", "s"},
	{"report_cpu_s", "s"},
	{"resume_cpu_s", "s"},
	{"warm_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics; execute fills a few of them
// from whole-run samples instead of per-iteration ones.
var perLayer = []metricDef{
	{"core.round_s", "s"},
	{"measure.task_ns_per_site", "ns"},
	{"measure.v6day_s", "s"},
	{"measure.v6day_ns_per_dual", "ns"},
	{"measure.v6day_dual_visits", "count"},
	{"measure.site_visits", "count"},
	{"measure.dual_visits", "count"},
	{"measure.measured_per_dual", "ratio"},
	{"measure.fetch_fails", "count"},
	{"store.dns_rows_per_run", "ratio"},
	{"store.checkpoint_save_s", "s"},
	{"store.checkpoint_bytes", "bytes"},
	{"store.csv_save_s", "s"},
	{"store.csv_bytes", "bytes"},
	{"store.csv_load_s", "s"},
	{"store.freeze_s", "s"},
	{"analysis.study_s", "s"},
	{"report.render_s", "s"},
	{"report.bytes", "bytes"},
	{"daemon.publish_p50_ms", "ms"},
	{"daemon.publish_p90_ms", "ms"},
	{"daemon.version_lag_ms", "ms"},
	{"daemon.serve_lag_ms", "ms"},
	{"daemon.sheds", "count"},
	{"daemon.restarts", "count"},
	{"daemon.sse_dropped", "count"},
	{"http.warm_bytes_per_req", "bytes"},
	{"shard.merge_s", "s"},
	{"shard.wire_bytes_per_site", "bytes"},
	{"shard.retries", "count"},
	{"go.alloc_bytes", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"trace.overhead", "ratio"},
	{"self.bench_s", "s"},
	{"self.scenario_s", "s"},
	{"self.core_s", "s"},
	{"self.measure_s", "s"},
	{"self.store_s", "s"},
	{"self.analysis_s", "s"},
	{"self.report_s", "s"},
	{"self.shard_s", "s"},
	{"self.daemon_s", "s"},
	{"self.http_s", "s"},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// peakRSS is the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostRecord describes the machine and the load generator's limits.
func hostRecord(conns int) map[string]any {
	model := ""
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu":          model,
		"go":           runtime.Version(),
		"gogc":         os.Getenv("GOGC"),
		"gomemlimit":   os.Getenv("GOMEMLIMIT"),
		"client_conns": conns,
	}
}
