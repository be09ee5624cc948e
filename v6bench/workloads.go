package main

// The four workloads. Each drives the system through the entry points
// its users call — the campaign runner the way v6mon runs it, the
// sharded coordinator the way v6mon -shards runs it, the daemon the way
// v6mond runs it — and then the v6report -db path over the saved CSVs
// and a daemon serving the result. Sizes are cut from the paper-scale
// packs so that one run fits several iterations in its time budget;
// the -set overrides are recorded in every result.

// mode is how a workload executes its campaign.
type mode int

const (
	batch   mode = iota // core.Scenario.RunContext in-process, as v6mon
	sharded             // shard.Run over worker processes, as v6mon -shards
	live                // daemon.New + Add + Run over loopback HTTP, as v6mond
)

func (m mode) String() string {
	return [...]string{"batch", "sharded", "live"}[m]
}

type workload struct {
	name string
	why  string
	pack string
	sets []string // -set overrides applied to the pack, before the seed
	tiny []string // overrides for the smoke scale the tests run
	mode mode
}

// baselineSets sizes the baseline-2011 world shared by daemon-live and
// sharded-baseline: 30% of the pack's list and 40 rounds, so the three
// campaigns of a run give the daemon over 100 round boundaries.
var baselineSets = []string{"list.size=6000", "list.extended=1500", "topo.ases=600", "schedule.rounds=40"}

var baselineTiny = []string{"list.size=600", "list.extended=200", "topo.ases=200", "schedule.rounds=12", "schedule.v6day_rounds=3"}

var workloads = []workload{
	{
		name: "mini-campaign",
		why:  "paper-scale-mini at 10k/50k sites, v6mon batch then v6report -db: 0.3% of visits dual, so DNS-phase rounds and CSV save/load lead; wall-only slowdowns (lost parallelism, I/O waits) are not gated",
		pack: "paper-scale-mini",
		sets: []string{"list.size=10000", "list.extended=50000"},
		tiny: []string{"list.size=2000", "list.extended=4000", "topo.ases=200", "schedule.rounds=6", "schedule.v6day_rounds=2"},
		mode: batch,
	},
	{
		name: "v6day-dense",
		why:  "world-ipv6-day at 65k sites (~1.1k participants), 2 main and 150 v6day rounds: downloads and the CI stop rule take ~35% of the campaign, CSV save ~40%, DNS-phase rounds ~18%",
		pack: "world-ipv6-day",
		sets: []string{"list.size=65000", "schedule.rounds=2", "schedule.v6day_rounds=150"},
		tiny: []string{"list.size=20000", "topo.ases=200", "schedule.rounds=2", "schedule.v6day_rounds=4"},
		mode: batch,
	},
	{
		name: "daemon-live",
		why:  "baseline-2011 run by an in-process daemon with an SSE subscriber and a closed-loop reader, drained mid-campaign and resumed: reads beside writes",
		pack: "baseline-2011",
		sets: baselineSets,
		tiny: baselineTiny,
		mode: live,
	},
	{
		name: "sharded-baseline",
		why:  "the daemon-live world run by shard.Run over 2 worker processes: wire frames, merge and coordinator",
		pack: "baseline-2011",
		sets: baselineSets,
		tiny: baselineTiny,
		mode: sharded,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
