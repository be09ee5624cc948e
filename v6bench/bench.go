package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"v6web/internal/analysis"
	"v6web/internal/cli"
	"v6web/internal/core"
	"v6web/internal/daemon"
	"v6web/internal/report"
	"v6web/internal/scenario"
	"v6web/internal/shard"
	"v6web/internal/store"
)

const (
	// checkpointEvery is v6mon's default cadence, used by the batch and
	// sharded campaigns.
	checkpointEvery = 5
	// setupReps is how many standalone set-ups an iteration times.
	setupReps = 15
	// shardWorkers is the sharded workload's worker process count.
	shardWorkers = 2
	// warmWindow is how long the reader loads a daemon serving a
	// completed campaign, per iteration.
	warmWindow = 300 * time.Millisecond
	// liveThink is the live reader's pause between requests: it keeps
	// the generator's own CPU use small beside the campaign it
	// measures, while still sampling the served round every few ms.
	liveThink = 2 * time.Millisecond
	// readyLimit bounds every wait on the daemon.
	readyLimit = 150 * time.Second
)

type options struct {
	seed     int64
	seeded   bool // seed given on the command line
	seconds  time.Duration
	trace    bool
	tiny     bool // smoke-test scale, set by the tests only
	minIters int
	workdir  string
}

// bench is one run of one workload.
type bench struct {
	w        workload
	opt      options
	sets     scenario.Overrides
	cfg      core.Config
	seed     int64 // the campaign seed in effect
	packSeed int64 // the pack's own seed
	t0       time.Time
	tr       *tracer
	cl       *client
	work     string

	// End-to-end samples, one per iteration (setupReps per iteration
	// for set-up): wall times, and CPU seconds of this process and its
	// worker processes.
	setupWall, campaign, report, ready      []float64
	setup, campaignCPU, reportCPU, readyCPU []float64
	// Campaign times of traced and untraced iterations of a traced run.
	campaignTraced, campaignPlain []float64
	// Warm GETs against a daemon serving a completed campaign, and
	// (daemon-live) against the daemon while its campaign runs.
	warm, live                    []request
	warmBusy                      time.Duration
	publish, versionLag, serveLag []float64

	// Per-layer samples, one per traced iteration.
	layer map[string][]float64

	attempts, failures int
	digests            map[string]string
	reportBytes        []byte
}

func newBench(w workload, opt options) (*bench, error) {
	sets := append(scenario.Overrides(nil), w.sets...)
	if opt.tiny {
		sets = append(scenario.Overrides(nil), w.tiny...)
	}
	sp, err := scenario.LoadSpec(w.pack, sets)
	if err != nil {
		return nil, err
	}
	packSeed := *sp.Seed
	seed := packSeed
	if opt.seeded {
		seed = opt.seed
		sets = append(sets, "seed="+strconv.FormatInt(seed, 10))
	}
	comp, err := scenario.LoadCompiled(w.pack, sets)
	if err != nil {
		return nil, err
	}
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("the load generator needs 2 connections and this host has %d CPU", runtime.NumCPU())
	}
	t0 := time.Now()
	return &bench{
		w: w, opt: opt, sets: sets, cfg: comp.Config, seed: seed, packSeed: packSeed,
		t0: t0, tr: newTracer(t0), cl: newClient(runtime.NumCPU()),
		work:  filepath.Join(opt.workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		layer: make(map[string][]float64),
	}, nil
}

// run executes iterations until the time budget is spent, and at
// least minIters of them.
func (b *bench) run(ctx context.Context) error {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	start := time.Now()
	var took []float64
	for it := 0; it < b.opt.minIters || time.Since(start).Seconds()+median(took)/2 < b.opt.seconds.Seconds(); it++ {
		// The last iteration starts only if at least half of it fits,
		// so a run ends within half an iteration of its budget.
		t := time.Now()
		// A traced run alternates untraced and traced iterations, so
		// the two campaign times give the tracing overhead.
		b.tr.on = b.opt.trace && it%2 == 1
		b.tr.trace = it
		if err := b.iteration(ctx, it); err != nil {
			return fmt.Errorf("iteration %d: %w", it, err)
		}
		took = append(took, time.Since(t).Seconds())
	}
	b.tr.on = false
	return nil
}

func (b *bench) newScenario() (*core.Scenario, error) {
	comp, err := scenario.LoadCompiled(b.w.pack, b.sets)
	if err != nil {
		return nil, err
	}
	return core.NewScenario(comp.Config)
}

// iteration runs one campaign in the workload's mode, then the
// v6report -db path over its CSVs, then (batch and sharded) a daemon
// restart that serves the completed campaign.
func (b *bench) iteration(ctx context.Context, it int) error {
	dir := filepath.Join(b.work, fmt.Sprintf("it%03d", it))
	defer os.RemoveAll(dir)
	campDir := filepath.Join(dir, "campaigns", campaignName)
	lay := make(map[string]float64)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Each measured phase starts from a collected heap, so the GC work
	// it is charged for is its own.
	runtime.GC()
	root := b.tr.begin("bench.iteration", 0)
	// The sharded coordinator and the daemon set their scenarios up
	// inside calls the benchmark cannot split, so every workload times
	// standalone set-ups: setupReps per iteration, as they are short.
	// Nothing else runs in the process meanwhile, so its CPU time is
	// the set-up's own.
	for i := 0; i < setupReps; i++ {
		c0 := cpuNow()
		d, err := b.tr.time("scenario.setup", root, func(int) error { _, err := b.newScenario(); return err })
		if err != nil {
			return err
		}
		b.setup = append(b.setup, cpuNow()-c0)
		b.setupWall = append(b.setupWall, d.Seconds())
	}
	var served []byte
	var err error
	switch b.w.mode {
	case batch:
		err = b.batchCampaign(ctx, dir, campDir, root, lay)
	case sharded:
		err = b.shardedCampaign(ctx, dir, campDir, root, lay)
	case live:
		served, err = b.liveCampaign(ctx, dir, root, lay)
	}
	if err != nil {
		return err
	}
	runtime.GC()
	rendered, err := b.reportPhase(campDir, root, lay)
	if err != nil {
		return err
	}
	if err := b.checkDigests(campDir, "iteration "+strconv.Itoa(it)); err != nil {
		return err
	}
	if b.w.mode != live {
		runtime.GC()
		if served, err = b.servePhase(ctx, dir, root, lay); err != nil {
			return err
		}
	}
	if !bytes.Equal(served, rendered) {
		return fmt.Errorf("oracle: the daemon's /report (%d bytes) differs from report.RenderStudy over its saved CSVs (%d bytes)", len(served), len(rendered))
	}
	b.tr.finish(root)

	if b.tr.on {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		lay["go.alloc_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
		lay["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
		lay["go.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
		for layer, d := range selfTimes(b.tr.traceSpans(it)) {
			lay["self."+layer+"_s"] = d.Seconds()
		}
		for _, m := range perLayerNames() {
			b.layer[m] = append(b.layer[m], lay[m])
		}
	}
	return nil
}

// addCampaign records one campaign's wall and CPU time.
func (b *bench) addCampaign(d time.Duration, cpu float64) {
	b.campaign = append(b.campaign, d.Seconds())
	b.campaignCPU = append(b.campaignCPU, cpu)
	if b.tr.on {
		b.campaignTraced = append(b.campaignTraced, d.Seconds())
	} else {
		b.campaignPlain = append(b.campaignPlain, d.Seconds())
	}
	b.attempts++
}

// register writes the campaign's daemon manifest, so that a daemon
// started on dir later finds the campaign the benchmark ran.
func (b *bench) register(dir string) error {
	_, err := daemon.New(daemon.Options{Dir: dir}).Add(campaignName, b.w.pack, b.sets)
	return err
}

// batchCampaign runs the campaign the way v6mon does.
func (b *bench) batchCampaign(ctx context.Context, dir, campDir string, root int, lay map[string]float64) error {
	if err := b.register(dir); err != nil {
		return err
	}
	var s *core.Scenario
	_, err := b.tr.time("scenario.setup", root, func(int) error {
		var err error
		s, err = b.newScenario()
		return err
	})
	if err != nil {
		return err
	}

	var rounds roundLog
	var ck *timedBackend
	c0 := cpuNow()
	d, err := b.tr.time("core.campaign", root, func(id int) error {
		backend := store.NewCheckpointBackend(campDir)
		backend.Fingerprint = b.cfg.Fingerprint()
		var be store.Backend = backend
		var opts, v6opts []core.RunOption
		runStart := b.tr.now()
		if b.tr.on {
			opts = append(opts, core.WithObserver(rounds.observer(b.tr, false)))
			v6opts = append(v6opts, core.WithObserver(rounds.observer(b.tr, true)))
		}
		_, err := b.tr.time("core.rounds", id, func(rid int) error {
			if b.tr.on {
				ck = &timedBackend{Backend: backend, tr: b.tr, parent: rid, root: backend.Dir}
				be = ck
			}
			return s.RunContext(ctx, append(opts, core.WithBackend(be), core.WithCheckpoint(checkpointEvery))...)
		})
		if err != nil {
			return err
		}
		if b.tr.on {
			lay["core.round_s"] = rounds.medianRound(runStart, ck.saves)
		}
		if err := b.v6dayAndSave(ctx, s, campDir, id, v6opts, lay); err != nil {
			return err
		}
		return os.RemoveAll(filepath.Join(campDir, "checkpoints"))
	})
	if err != nil {
		return err
	}
	b.addCampaign(d, cpuNow()-c0)
	if b.tr.on {
		rounds.record(lay)
		lay["store.checkpoint_save_s"] = median(ck.seconds())
		lay["store.checkpoint_bytes"] = float64(ck.lastBytes)
	}
	return nil
}

// v6dayAndSave is the common campaign tail: World IPv6 Day, then the
// final CSVs.
func (b *bench) v6dayAndSave(ctx context.Context, s *core.Scenario, campDir string, parent int, v6opts []core.RunOption, lay map[string]float64) error {
	d, err := b.tr.time("measure.v6day", parent, func(int) error { return s.RunWorldV6DayContext(ctx, v6opts...) })
	if err != nil {
		return err
	}
	lay["measure.v6day_s"] = d.Seconds()
	d, err = b.tr.time("store.csv_save", parent, func(int) error {
		return cli.SaveCompleted(campDir, b.cfg.Rounds, b.cfg.Fingerprint(), s.DB, s.V6DayDB)
	})
	if err != nil {
		return err
	}
	lay["store.csv_save_s"] = d.Seconds()
	return nil
}

// shardedCampaign runs the campaign the way v6mon -shards does.
func (b *bench) shardedCampaign(ctx context.Context, dir, campDir string, root int, lay map[string]float64) error {
	if err := b.register(dir); err != nil {
		return err
	}
	var rounds roundLog
	c0 := cpuNow()
	d, err := b.tr.time("shard.campaign", root, func(id int) error {
		var s *core.Scenario
		var st *shard.Stats
		opt := shard.Options{Workers: shardWorkers, Dir: filepath.Join(campDir, "shards"), CheckpointEvery: checkpointEvery}
		_, err := b.tr.time("shard.run", id, func(int) error {
			var err error
			s, st, err = shard.Run(ctx, b.cfg, opt)
			return err
		})
		if err != nil {
			return err
		}
		b.attempts += st.Shards + st.Retries
		b.failures += st.Retries
		if b.tr.on {
			sites, err := core.FinalMainSites(b.cfg)
			if err != nil {
				return err
			}
			lay["shard.merge_s"] = st.MergeDur.Seconds()
			lay["shard.wire_bytes_per_site"] = ratio(float64(st.WireBytes), float64(sites))
			lay["shard.retries"] = float64(st.Retries)
		}
		var v6opts []core.RunOption
		if b.tr.on {
			v6opts = append(v6opts, core.WithObserver(rounds.observer(b.tr, true)))
		}
		if err := b.v6dayAndSave(ctx, s, campDir, id, v6opts, lay); err != nil {
			return err
		}
		if b.tr.on {
			shards, err := filepath.Glob(filepath.Join(opt.Dir, "*"))
			if err != nil {
				return err
			}
			for _, sd := range shards {
				n, err := newestCheckpointBytes(sd)
				if err != nil {
					return err
				}
				lay["store.checkpoint_bytes"] += float64(n)
			}
		}
		return os.RemoveAll(opt.Dir)
	})
	if err != nil {
		return err
	}
	b.addCampaign(d, cpuNow()-c0)
	if b.tr.on {
		rounds.record(lay)
	}
	return nil
}

// liveCampaign runs the campaign in a daemon on loopback HTTP with an
// SSE subscriber and a closed-loop reader, drains the daemon once half
// the rounds are published, resumes it with a fresh daemon on the same
// data directory, loads the completed campaign like servePhase, and
// returns the final served report.
func (b *bench) liveCampaign(ctx context.Context, dir string, root int, lay map[string]float64) ([]byte, error) {
	drainAt := b.cfg.Rounds / 2
	var evAll []event
	var dropped, sheds, restarts int
	var s2 *session
	c0 := cpuNow()
	d, err := b.tr.time("daemon.campaign", root, func(id int) error {
		// First daemon: fresh campaign, drained mid-way.
		s1, err := startDaemon(ctx, dir, func(d *daemon.Daemon) error {
			_, err := d.Add(campaignName, b.w.pack, b.sets)
			return err
		})
		if err != nil {
			return err
		}
		ev1, reqs1, drop1, err := b.follow(ctx, s1, id, func(sub *subscriber) error {
			return sub.waitFor(ctx, readyLimit, fmt.Sprintf("version for round %d", drainAt), func(e event) bool {
				return e.Kind == "version" && e.Round >= drainAt
			})
		}, nil)
		if err != nil {
			s1.stop()
			return err
		}
		sh, rs, err := b.cl.daemonCounters(ctx, s1)
		if err != nil {
			s1.stop()
			return err
		}
		sheds, restarts = sheds+sh, restarts+rs
		if err := s1.stop(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		b.cl.http.CloseIdleConnections()
		if b.tr.on {
			n, err := newestCheckpointBytes(filepath.Join(dir, "campaigns", campaignName))
			if err != nil {
				return err
			}
			lay["store.checkpoint_bytes"] = float64(n)
		}

		// Second daemon: flagless restart on the same data directory.
		runtime.GC()
		t, c1 := time.Now(), cpuNow()
		if s2, err = startDaemon(ctx, dir, (*daemon.Daemon).Discover); err != nil {
			return err
		}
		ev2, reqs2, drop2, err := b.follow(ctx, s2, id, func(sub *subscriber) error {
			return sub.waitFor(ctx, readyLimit, "campaign completion", func(e event) bool { return e.Kind == "complete" })
		}, func() {
			b.ready = append(b.ready, time.Since(t).Seconds())
			b.readyCPU = append(b.readyCPU, cpuNow()-c1)
		})
		if err != nil {
			return err
		}
		for _, part := range []struct {
			evs  []event
			reqs []request
		}{{ev1, reqs1}, {ev2, reqs2}} {
			p, vl, sl := publishLags(part.evs, part.reqs)
			b.publish = append(b.publish, p...)
			b.versionLag = append(b.versionLag, vl...)
			b.serveLag = append(b.serveLag, sl...)
			b.live = append(b.live, part.reqs...)
			evAll = append(evAll, part.evs...)
		}
		dropped = drop1 + drop2
		return nil
	})
	if err == nil {
		b.addCampaign(d, cpuNow()-c0)
		err = b.warmLoad(ctx, s2, root)
	}
	var final []byte
	if err == nil {
		final, err = b.finalReport(ctx, s2)
	}
	if err == nil {
		var sh, rs int
		sh, rs, err = b.cl.daemonCounters(ctx, s2)
		sheds, restarts = sheds+sh, restarts+rs
	}
	if s2 != nil {
		if serr := s2.stop(); err == nil && serr != nil {
			err = fmt.Errorf("drain: %w", serr)
		}
		b.cl.http.CloseIdleConnections()
	}
	if err != nil {
		return nil, err
	}
	b.attempts += 2 + restarts // two supervised daemon sessions
	b.failures += restarts
	if b.tr.on {
		liveRounds(evAll, lay)
		lay["daemon.sheds"] = float64(sheds)
		lay["daemon.restarts"] = float64(restarts)
		lay["daemon.sse_dropped"] = float64(dropped)
	}
	return final, nil
}

// follow subscribes to a daemon's events, waits for its first warm
// 200 (calling onReady then), loads it with the reader until until
// returns, and hands back what both clients saw and how many events
// the daemon dropped for the subscriber.
func (b *bench) follow(ctx context.Context, s *session, parent int, until func(*subscriber) error, onReady func()) ([]event, []request, int, error) {
	sub, err := b.cl.subscribe(ctx, b.t0, s.base+"/events")
	if err != nil {
		return nil, nil, 0, err
	}
	_, err = b.tr.time("daemon.ready", parent, func(int) error {
		_, err := b.cl.waitReady(ctx, s.base+"/report", readyLimit)
		return err
	})
	if err != nil {
		sub.stop()
		return nil, nil, 0, err
	}
	if onReady != nil {
		onReady()
	}
	paths, err := b.cl.warmPaths(ctx, s)
	if err != nil {
		sub.stop()
		return nil, nil, 0, err
	}
	var reqs []request
	_, err = b.tr.time("http.live", parent, func(int) error {
		rd := b.cl.startReader(ctx, b.t0, s.base, paths, liveThink)
		err := until(sub)
		reqs = rd.stop()
		return err
	})
	evs, dropped, serr := sub.stop()
	if err == nil {
		err = serr
	}
	return evs, reqs, dropped, err
}

// warmLoad loads a daemon serving a completed campaign with the
// closed-loop reader, back to back, for warmWindow.
func (b *bench) warmLoad(ctx context.Context, s *session, parent int) error {
	paths, err := b.cl.warmPaths(ctx, s)
	if err != nil {
		return err
	}
	b.tr.time("http.warm", parent, func(int) error {
		rd := b.cl.startReader(ctx, b.t0, s.base, paths, 0)
		time.Sleep(warmWindow)
		b.warm = append(b.warm, rd.stop()...)
		b.warmBusy += rd.busy
		return nil
	})
	return nil
}

// finalReport fetches the completed campaign's report and checks it is
// the final version.
func (b *bench) finalReport(ctx context.Context, s *session) ([]byte, error) {
	status, h, body, err := b.cl.get(ctx, s.base+"/report")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("final report: %d %v", status, err)
	}
	if got := h.Get("X-Campaign-Round"); got != strconv.Itoa(b.cfg.Rounds) {
		return nil, fmt.Errorf("final report is for round %s, want %d", got, b.cfg.Rounds)
	}
	return body, nil
}

// servePhase restarts a daemon on a completed campaign's data
// directory, times it to its first warm 200, and loads it for
// warmWindow. It returns the served report.
func (b *bench) servePhase(ctx context.Context, dir string, root int, lay map[string]float64) ([]byte, error) {
	var body []byte
	t, c0 := time.Now(), cpuNow()
	s, err := startDaemon(ctx, dir, (*daemon.Daemon).Discover)
	if err != nil {
		return nil, err
	}
	_, err = b.tr.time("daemon.ready", root, func(int) error {
		var err error
		body, err = b.cl.waitReady(ctx, s.base+"/report", readyLimit)
		return err
	})
	if err == nil {
		b.ready = append(b.ready, time.Since(t).Seconds())
		b.readyCPU = append(b.readyCPU, cpuNow()-c0)
		err = b.warmLoad(ctx, s, root)
	}
	var sheds, restarts int
	if err == nil {
		sheds, restarts, err = b.cl.daemonCounters(ctx, s)
	}
	if serr := s.stop(); err == nil && serr != nil {
		err = fmt.Errorf("drain: %w", serr)
	}
	b.cl.http.CloseIdleConnections()
	b.attempts += 1 + restarts
	b.failures += restarts
	if b.tr.on {
		lay["daemon.sheds"] = float64(sheds)
		lay["daemon.restarts"] = float64(restarts)
	}
	return body, err
}

// reportPhase is the v6report -db path over the campaign's saved CSVs:
// load, freeze, analyze and render both databases.
func (b *bench) reportPhase(campDir string, root int, lay map[string]float64) ([]byte, error) {
	var buf bytes.Buffer
	var mainDB *store.DB
	c0 := cpuNow()
	d, err := b.tr.time("bench.report", root, func(id int) error {
		var studies [2]*analysis.Study
		for i, snap := range []string{store.SnapMain, store.SnapV6Day} {
			var db *store.DB
			var fr *store.Snapshot
			dl, err := b.tr.time("store.csv_load", id, func(int) error {
				var err error
				db, err = store.Load(filepath.Join(campDir, snap))
				return err
			})
			if err != nil {
				return err
			}
			df, _ := b.tr.time("store.freeze", id, func(int) error { fr = db.Freeze(); return nil })
			th := analysis.DefaultThresholds()
			if snap == store.SnapV6Day {
				th = report.V6DayThresholds()
			} else {
				mainDB = db
			}
			ds, _ := b.tr.time("analysis.study", id, func(int) error { studies[i] = report.StudyOfSnapshot(fr, th); return nil })
			lay["store.csv_load_s"] += dl.Seconds()
			lay["store.freeze_s"] += df.Seconds()
			lay["analysis.study_s"] += ds.Seconds()
		}
		dr, _ := b.tr.time("report.render", id, func(int) error { report.RenderStudy(&buf, studies[0], studies[1]); return nil })
		lay["report.render_s"] = dr.Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.report = append(b.report, d.Seconds())
	b.reportCPU = append(b.reportCPU, cpuNow()-c0)
	if b.reportBytes == nil {
		b.reportBytes = buf.Bytes()
	} else if !bytes.Equal(b.reportBytes, buf.Bytes()) {
		return nil, errors.New("oracle: the report differs between iterations of one seed")
	}
	if b.tr.on {
		n, err := csvBytes(campDir)
		if err != nil {
			return nil, err
		}
		lay["store.csv_bytes"] = float64(n)
		lay["report.bytes"] = float64(buf.Len())
		shapeCounts(mainDB, lay)
	}
	return buf.Bytes(), nil
}

// shapeCounts records the exact counts of the main database: DNS rows
// (one per site visit), dual-stack visits, and the delta encoder's
// rows per stored run.
func shapeCounts(db *store.DB, lay map[string]float64) {
	var rows, runs, dual int
	for _, v := range db.Vantages() {
		r, n, _ := db.DNSStats(v)
		rows, runs = rows+r, runs+n
		db.ForEachDNS(v, func(row store.DNSRow) {
			if row.HasA && row.HasAAAA {
				dual++
			}
		})
	}
	lay["measure.site_visits"] = float64(rows)
	lay["measure.dual_visits"] = float64(dual)
	lay["store.dns_rows_per_run"] = ratio(float64(rows), float64(runs))
}

// checkDigests hashes the campaign's CSVs and compares them with the
// first iteration's, so every iteration of a seed produces the same
// bytes.
func (b *bench) checkDigests(campDir, what string) error {
	got, err := digestCSVs(campDir)
	if err != nil {
		return err
	}
	if b.digests == nil {
		b.digests = got
		return nil
	}
	return compareDigests(b.digests, got, what)
}

// crossCheck runs the oracles that compare execution modes. Live and
// sharded campaigns are compared with an uninterrupted in-process
// campaign of the same seed; at the recorded seed every workload is
// also compared with the digests recorded in digests.go.
func (b *bench) crossCheck(ctx context.Context) error {
	if b.w.mode != batch {
		dir := filepath.Join(b.work, "reference")
		s, err := b.newScenario()
		if err != nil {
			return err
		}
		if err := s.RunContext(ctx); err != nil {
			return err
		}
		if err := s.RunWorldV6DayContext(ctx); err != nil {
			return err
		}
		if err := cli.SaveCompleted(dir, b.cfg.Rounds, b.cfg.Fingerprint(), s.DB, s.V6DayDB); err != nil {
			return err
		}
		b.attempts++
		ref, err := digestCSVs(dir)
		if err != nil {
			return err
		}
		if err := compareDigests(ref, b.digests, b.w.mode.String()+" vs in-process campaign"); err != nil {
			return err
		}
	}
	if want, ok := b.recordedDigests(); ok {
		return compareDigests(want, b.digests, "recorded digests")
	}
	return nil
}

func digestCSVs(campDir string) (map[string]string, error) {
	out := make(map[string]string)
	for _, snap := range []string{store.SnapMain, store.SnapV6Day} {
		err := filepath.WalkDir(filepath.Join(campDir, snap), func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sum := sha256.Sum256(data)
			rel, _ := filepath.Rel(campDir, path)
			out[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no CSVs under %s", campDir)
	}
	return out, nil
}

func compareDigests(want, got map[string]string, what string) error {
	var bad []string
	for name, sum := range want {
		if got[name] != sum {
			bad = append(bad, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("oracle (%s): CSVs differ: %v", what, bad)
	}
	return nil
}

func csvBytes(campDir string) (int64, error) {
	var n int64
	for _, snap := range []string{store.SnapMain, store.SnapV6Day} {
		err := filepath.WalkDir(filepath.Join(campDir, snap), func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err == nil {
				n += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// cpuNow is the CPU time this process and its waited-for children
// (the shard workers) have used, in seconds. Unlike wall time it does
// not grow when the host lends the CPUs to other guests.
func cpuNow() float64 {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(self.Utime.Nano()+self.Stime.Nano()+kids.Utime.Nano()+kids.Stime.Nano()) / 1e9
}
