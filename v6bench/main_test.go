package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"v6web/internal/shard"
)

func TestMain(m *testing.M) {
	// The sharded workload's workers re-execute the test binary.
	shard.MaybeWorker()
	os.Exit(m.Run())
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		q    float64
		n    int
		want float64 // 0: must fail
	}{
		{0.5, 21, 11},
		{0.5, 20, 10},
		{0.5, 19, 0},
		{0.9, 100, 90},
		{0.9, 99, 0},
		{0.99, 1000, 990},
		{0.99, 999, 0},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want an error", 100*tc.q, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*tc.q, tc.n, got, err, tc.want)
		}
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "bench.iteration", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "core.rounds", Start: 10 * ms, End: 60 * ms},
		{ID: 3, Parent: 2, Name: "store.checkpoint", Start: 20 * ms, End: 30 * ms},
		{ID: 4, Parent: 2, Name: "store.checkpoint", Start: 25 * ms, End: 40 * ms}, // overlaps 3
		{ID: 5, Parent: 1, Name: "http.live", Start: 50 * ms, End: 80 * ms},        // overlaps 2
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 30 * ms, "core": 30 * ms, "store": 25 * ms, "http": 30 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json this
// command must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for i, w := range bj.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and workloads.go", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	e2e := make(map[string]string)
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if got := unitsOf(endToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end-to-end metrics: command %v, BENCHMARK.json %v", got, e2e)
	}
	layer := make(map[string]string)
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	if got := unitsOf(perLayer); !reflect.DeepEqual(got, layer) {
		t.Errorf("per-layer metrics: command %v, BENCHMARK.json %v", got, layer)
	}
}

func unitsOf(ms []metricDef) map[string]string {
	out := make(map[string]string)
	for _, m := range ms {
		out[m.name] = m.unit
	}
	return out
}

// TestSmokeAllWorkloads runs every workload at smoke scale, untraced
// and traced, on a seed that has no recorded digests, so the
// cross-mode oracles carry the check.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			opt := options{seed: 5, seeded: true, seconds: time.Millisecond, trace: trace, tiny: true, minIters: 2, workdir: t.TempDir()}
			if trace {
				opt.minIters = 4
			}
			var out bytes.Buffer
			res, err := execute(context.Background(), w, opt, &out)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			var got, wantNames []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, name, m.Value)
				}
			}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
			}
			sort.Strings(got)
			sort.Strings(wantNames)
			if !reflect.DeepEqual(got, wantNames) {
				t.Errorf("%s (trace %v): metrics %v, want %v", w.name, trace, got, wantNames)
			}
			if !strings.Contains(out.String(), `"host"`) {
				t.Errorf("%s: no host record before the result", w.name)
			}
		}
	}
}

func TestDigestMismatchFails(t *testing.T) {
	want := map[string]string{"main/sites.csv": "aa", "v6day/dns.csv": "bb"}
	if err := compareDigests(want, map[string]string{"main/sites.csv": "aa", "v6day/dns.csv": "bb"}, "same"); err != nil {
		t.Errorf("equal digests: %v", err)
	}
	for _, got := range []map[string]string{
		{"main/sites.csv": "aa", "v6day/dns.csv": "cc"},
		{"main/sites.csv": "aa"},
		{"main/sites.csv": "aa", "v6day/dns.csv": "bb", "main/extra.csv": "dd"},
	} {
		if err := compareDigests(want, got, "changed"); err == nil {
			t.Errorf("digests %v passed against %v", got, want)
		}
	}
}
