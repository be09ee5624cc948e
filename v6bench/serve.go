package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"v6web/internal/daemon"
)

// campaignName is the name every workload registers its campaign under.
const campaignName = "bench"

// session is one in-process daemon serving a data directory on
// loopback HTTP, stopped by cancelling its context.
type session struct {
	base   string // http://addr/api/campaigns/<name>
	cancel context.CancelFunc
	done   chan error
}

// startDaemon builds a daemon over dir, lets register add or discover
// its campaign, and runs it until stop.
func startDaemon(ctx context.Context, dir string, register func(*daemon.Daemon) error) (*session, error) {
	d := daemon.New(daemon.Options{Dir: dir, Addr: "127.0.0.1:0", CheckpointEvery: 1})
	if err := register(d); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	s := &session{cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- d.Run(ctx) }()
	for d.Addr() == "" {
		select {
		case err := <-s.done:
			cancel()
			return nil, fmt.Errorf("daemon exited before listening: %v", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	s.base = "http://" + d.Addr() + "/api/campaigns/" + campaignName
	return s, nil
}

// stop drains the daemon and waits for Run to return.
func (s *session) stop() error {
	s.cancel()
	return <-s.done
}

// client is the load generator's HTTP side. Its transport caps open
// connections at maxConns, the generator's whole connection budget.
type client struct {
	http     *http.Client
	maxConns int

	mu        sync.Mutex
	attempted int
	failed    int
}

func newClient(maxConns int) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, maxConns: maxConns}
}

func (c *client) count(ok bool) {
	c.mu.Lock()
	c.attempted++
	if !ok {
		c.failed++
	}
	c.mu.Unlock()
}

// get fetches url and counts the request; a transport error or any
// status but 200 is a failed request.
func (c *client) get(ctx context.Context, url string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.countUnlessStopped(ctx, false)
		return 0, nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.countUnlessStopped(ctx, err == nil && resp.StatusCode == http.StatusOK)
	return resp.StatusCode, resp.Header, body, err
}

// countUnlessStopped counts a request unless the generator itself
// cancelled it (a reader stopped mid-request sent nothing the daemon
// failed to serve).
func (c *client) countUnlessStopped(ctx context.Context, ok bool) {
	if ctx.Err() == nil {
		c.count(ok)
	}
}

// waitReady polls url until it answers 200 and returns the body.
// Polling is not counted as load: a 503 before the first version is
// the daemon's documented not-ready answer.
func (c *client) waitReady(ctx context.Context, url string, limit time.Duration) ([]byte, error) {
	deadline := time.Now().Add(limit)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		if resp, err := c.http.Do(req); err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return body, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not ready after %v", url, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// request is one closed-loop GET as the reader saw it.
type request struct {
	at    time.Duration // response received, as an offset from the run's start
	lat   float64       // ms; +Inf for a failed request
	round int           // X-Campaign-Round of the response
	bytes int
}

// reader is one closed-loop client: it sends its next GET only after
// the previous one completed and think has passed, cycling over paths,
// until stopped.
type reader struct {
	cancel context.CancelFunc
	done   chan struct{}
	start  time.Time
	busy   time.Duration
	reqs   []request
}

func (c *client) startReader(ctx context.Context, t0 time.Time, base string, paths []string, think time.Duration) *reader {
	ctx, cancel := context.WithCancel(ctx)
	r := &reader{cancel: cancel, done: make(chan struct{}), start: time.Now()}
	go func() {
		defer close(r.done)
		for i := 0; ctx.Err() == nil; i++ {
			sent := time.Now()
			status, h, body, err := c.get(ctx, base+paths[i%len(paths)])
			if ctx.Err() != nil {
				break // stopped mid-request: not a served request
			}
			rq := request{at: time.Since(t0), lat: float64(time.Since(sent)) / 1e6, bytes: len(body)}
			if err != nil || status != http.StatusOK {
				rq.lat = math.Inf(1)
			}
			rq.round, _ = strconv.Atoi(h.Get("X-Campaign-Round"))
			r.reqs = append(r.reqs, rq)
			if think > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(think):
				}
			}
		}
		r.busy = time.Since(r.start)
	}()
	return r
}

// stop ends the reader and waits for its last request.
func (r *reader) stop() []request {
	r.cancel()
	<-r.done
	return r.reqs
}

// event is a daemon SSE event plus when the subscriber received it.
type event struct {
	daemon.Event
	at time.Duration
}

// subscriber follows a campaign's SSE stream until the daemon drains
// or it is stopped, keeping every event and offering each to waitFor.
type subscriber struct {
	cancel  context.CancelFunc
	done    chan struct{}
	mu      sync.Mutex
	events  []event
	dropped int
	notify  chan event
	err     error
}

func (c *client) subscribe(ctx context.Context, t0 time.Time, url string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("events: status %d", resp.StatusCode)
	}
	c.count(err == nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// notify is buffered for every event a campaign can send while the
	// waiter is between receives; the waiter only ever drains it.
	s := &subscriber{cancel: cancel, done: make(chan struct{}), notify: make(chan event, 4096)}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, ": lag — "); ok {
				n, _ := strconv.Atoi(strings.Fields(rest)[0])
				s.mu.Lock()
				s.dropped += n
				s.mu.Unlock()
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			ev := event{at: time.Since(t0)}
			if err := json.Unmarshal([]byte(data), &ev.Event); err != nil {
				s.err = err
				return
			}
			s.mu.Lock()
			s.events = append(s.events, ev)
			s.mu.Unlock()
			select {
			case s.notify <- ev:
			default:
			}
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			s.err = err
		}
	}()
	return s, nil
}

// waitFor blocks until an event satisfying ok arrives.
func (s *subscriber) waitFor(ctx context.Context, limit time.Duration, what string, ok func(event) bool) error {
	timer := time.NewTimer(limit)
	defer timer.Stop()
	for {
		select {
		case ev := <-s.notify:
			if ok(ev) {
				return nil
			}
		case <-s.done:
			return fmt.Errorf("event stream ended before %s (%v)", what, s.err)
		case <-timer.C:
			return fmt.Errorf("no %s within %v", what, limit)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// stop closes the stream and returns what it saw.
func (s *subscriber) stop() ([]event, int, error) {
	s.cancel()
	<-s.done
	return s.events, s.dropped, s.err
}

// daemonCounters reads the shed and restart counters from the status API.
func (c *client) daemonCounters(ctx context.Context, s *session) (sheds, restarts int, err error) {
	url := strings.TrimSuffix(s.base, "/"+campaignName)
	status, _, body, err := c.get(ctx, url)
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("campaign status: %d %v", status, err)
	}
	var st struct {
		Campaigns []struct {
			Restarts int `json:"restarts"`
		} `json:"campaigns"`
		Sheds int `json:"sheds"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, 0, err
	}
	for _, c := range st.Campaigns {
		restarts += c.Restarts
	}
	return st.Sheds, restarts, nil
}

// warmPaths picks the reader's cycle from the campaign's warm
// exhibits: the full report, one table and one figure.
func (c *client) warmPaths(ctx context.Context, s *session) ([]string, error) {
	status, _, body, err := c.get(ctx, s.base+"/exhibits")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("exhibit index: %d %v", status, err)
	}
	var idx struct {
		Warm []string `json:"warm"`
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		return nil, err
	}
	paths := []string{"/report"}
	var table, fig bool
	for _, name := range idx.Warm {
		switch {
		case !table && strings.HasPrefix(name, "table"):
			paths, table = append(paths, "/exhibits/"+name), true
		case !fig && strings.HasPrefix(name, "fig"):
			paths, fig = append(paths, "/exhibits/"+name), true
		}
	}
	if !table {
		return nil, errors.New("campaign has no warm table")
	}
	return paths, nil
}
