package main

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"v6web/internal/core"
	"v6web/internal/store"
)

// roundLog collects a traced campaign's round events with the time
// each arrived.
type roundLog struct {
	mu    sync.Mutex
	main  []stamped
	v6day []stamped
}

type stamped struct {
	at time.Duration
	ev core.RoundEvent
}

func (l *roundLog) observer(tr *tracer, v6day bool) core.Observer {
	return func(ev core.RoundEvent) {
		st := stamped{at: tr.now(), ev: ev}
		l.mu.Lock()
		defer l.mu.Unlock()
		if v6day {
			l.v6day = append(l.v6day, st)
		} else {
			l.main = append(l.main, st)
		}
	}
}

// medianRound is the median NextRound time: from the end of the
// previous round (or of the checkpoint written after it) to the last
// event of the round.
func (l *roundLog) medianRound(start time.Duration, saves [][2]time.Duration) float64 {
	end := make(map[int]time.Duration)
	for _, st := range l.main {
		end[st.ev.Round] = st.at
	}
	var out []float64
	prev := start
	for r := 0; ; r++ {
		e, ok := end[r]
		if !ok {
			break
		}
		for _, s := range saves {
			if s[1] > prev && s[1] <= e {
				prev = s[1]
			}
		}
		out = append(out, (e - prev).Seconds())
		prev = e
	}
	return median(out)
}

// record adds the per-site measurement figures of the logged events.
func (l *roundLog) record(lay map[string]float64) {
	var elapsed, sites, dual, measured, fails float64
	for _, st := range l.main {
		elapsed += float64(st.ev.Elapsed)
		sites += float64(st.ev.Stats.Sites)
		dual += float64(st.ev.Stats.Dual)
		measured += float64(st.ev.Stats.Measured)
		fails += float64(st.ev.Stats.FetchFails)
	}
	lay["measure.task_ns_per_site"] = ratio(elapsed, sites)
	lay["measure.measured_per_dual"] = ratio(measured, dual)
	lay["measure.fetch_fails"] = fails
	var v6elapsed, v6dual float64
	for _, st := range l.v6day {
		v6elapsed += float64(st.ev.Elapsed)
		v6dual += float64(st.ev.Stats.Dual)
	}
	lay["measure.v6day_ns_per_dual"] = ratio(v6elapsed, v6dual)
	lay["measure.v6day_dual_visits"] = v6dual
}

// liveRounds derives the round and measurement figures of a daemon
// campaign from its SSE stream: a round's time runs from the version
// published before it to its last round event.
func liveRounds(evs []event, lay map[string]float64) {
	lastRound := make(map[int]time.Duration)
	version := make(map[int]time.Duration)
	var elapsed, sites, dual, measured, v6elapsed, v6dual float64
	var v6end time.Duration
	for _, e := range evs {
		switch e.Kind {
		case "round":
			lastRound[e.Round] = e.at
			elapsed += e.Elapsed * 1e6
			sites += float64(e.Sites)
			dual += float64(e.Dual)
			measured += float64(e.Measured)
		case "version":
			if _, ok := version[e.Round]; !ok {
				version[e.Round] = e.at
			}
		case "v6day-round":
			v6elapsed += e.Elapsed * 1e6
			v6dual += float64(e.Dual)
			v6end = e.at
		}
	}
	var rounds []float64
	for r, end := range lastRound {
		if start, ok := version[r]; ok && start < end {
			rounds = append(rounds, (end - start).Seconds())
		}
	}
	lay["core.round_s"] = median(rounds)
	lay["measure.task_ns_per_site"] = ratio(elapsed, sites)
	lay["measure.measured_per_dual"] = ratio(measured, dual)
	lay["measure.v6day_ns_per_dual"] = ratio(v6elapsed, v6dual)
	lay["measure.v6day_dual_visits"] = v6dual
	// The first version of the last main round is published just
	// before the daemon starts World IPv6 Day.
	last := -1
	for r := range version {
		if r > last {
			last = r
		}
	}
	if mainEnd, ok := version[last]; ok && v6end > mainEnd {
		lay["measure.v6day_s"] = (v6end - mainEnd).Seconds()
	}
}

// publishLags pairs each round's last SSE round event with the first
// reader response that carries the next round, within one daemon's
// lifetime. It returns the publish latency (event to response) and its
// two parts: event to the SSE version event, and version event to
// response. Times are ms.
func publishLags(evs []event, reqs []request) (publish, versionLag, serveLag []float64) {
	lastRound := make(map[int]time.Duration)
	version := make(map[int]time.Duration)
	for _, e := range evs {
		switch e.Kind {
		case "round":
			lastRound[e.Round] = e.at
		case "version":
			if _, ok := version[e.Round]; !ok {
				version[e.Round] = e.at
			}
		}
	}
	rs := make([]int, 0, len(lastRound))
	for r := range lastRound {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	for _, r := range rs {
		end := lastRound[r]
		i := sort.Search(len(reqs), func(i int) bool { return reqs[i].at >= end })
		for ; i < len(reqs) && reqs[i].round < r+1; i++ {
		}
		if i == len(reqs) {
			continue // the reader stopped before the round was served
		}
		publish = append(publish, ms(reqs[i].at-end))
		if v, ok := version[r+1]; ok && v >= end && v <= reqs[i].at {
			versionLag = append(versionLag, ms(v-end))
			serveLag = append(serveLag, ms(reqs[i].at-v))
		}
	}
	return publish, versionLag, serveLag
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timedBackend times each checkpoint a campaign writes through it: a
// snapshot save through to the metadata commit.
type timedBackend struct {
	store.Backend
	tr     *tracer
	parent int
	root   string // the checkpoint backend's directory

	span      int
	start     time.Duration
	saves     [][2]time.Duration
	lastBytes int64
}

func (t *timedBackend) SaveSnapshot(name string, db *store.DB) error {
	t.span = t.tr.begin("store.checkpoint", t.parent)
	t.start = t.tr.now()
	return t.Backend.SaveSnapshot(name, db)
}

func (t *timedBackend) SaveMeta(m store.Meta) error {
	err := t.Backend.SaveMeta(m)
	t.saves = append(t.saves, [2]time.Duration{t.start, t.tr.now()})
	t.tr.finish(t.span)
	if err == nil {
		t.lastBytes, err = newestCheckpointBytes(t.root)
	}
	return err
}

func (t *timedBackend) seconds() []float64 {
	out := make([]float64, len(t.saves))
	for i, s := range t.saves {
		out[i] = (s[1] - s[0]).Seconds()
	}
	return out
}

// newestCheckpointBytes is the on-disk size of the newest committed
// checkpoint under dir/checkpoints (directories sort by sequence).
func newestCheckpointBytes(dir string) (int64, error) {
	root := filepath.Join(dir, "checkpoints")
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0, err
	}
	var newest string
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) == 9 && e.Name()[:3] == "ck-" {
			newest = e.Name()
		}
	}
	if newest == "" {
		return 0, nil
	}
	var n int64
	err = filepath.Walk(filepath.Join(root, newest), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
