package store_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/analysis"
	"v6web/internal/core"
	"v6web/internal/report"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// savedFiles saves db as CSV under a fresh directory and returns the
// directory and each file's bytes.
func savedFiles(t *testing.T, db *store.DB) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, name := range []string{"sites.csv", "dns.csv", "samples.csv", "paths.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return dir, out
}

// reloadIdentical loads dir and checks the loaded database re-saves to
// exactly want.
func reloadIdentical(t *testing.T, dir string, want map[string][]byte) *store.DB {
	t.Helper()
	loaded, err := store.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, got := savedFiles(t, loaded)
	for name, data := range want {
		if !bytes.Equal(data, got[name]) {
			t.Errorf("%s differs after Save -> Load -> Save", name)
		}
	}
	return loaded
}

func rendered(db *store.DB) string {
	var b strings.Builder
	report.RenderStudy(&b, report.StudyOfSnapshot(db.Freeze(), analysis.DefaultThresholds()), nil)
	return b.String()
}

func TestLoadCampaignCSVIsDense(t *testing.T) {
	// A campaign's saved CSVs must load into dense tables with both
	// ranges reserved — the fast path — not into the overflow maps.
	cfg := core.DefaultConfig(5)
	cfg.NASes = 200
	cfg.ListSize = 1000
	cfg.Extended = 2000
	cfg.Rounds = 4
	cfg.Vantages = core.ScaledVantages(cfg.Rounds)
	s, err := core.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	dir, want := savedFiles(t, s.DB)
	loaded := reloadIdentical(t, dir, want)
	main, extBase, ext, overflow := store.DenseLayout(loaded)
	if main < cfg.ListSize || extBase != core.ExtendedBase || ext != cfg.Extended || overflow != 0 {
		t.Fatalf("campaign CSVs loaded with main %d, extended %d at %d, %d overflow entries; want main >= %d, extended %d at %d, no overflow",
			main, ext, extBase, overflow, cfg.ListSize, cfg.Extended, core.ExtendedBase)
	}
	if got, want := rendered(loaded), rendered(s.DB); got != want {
		t.Fatal("loaded campaign renders differently from the in-memory one")
	}
}

// hostileDB builds a database whose CSVs exercise every reader path:
// hosts and a vantage name that Save must quote (so loading hands off
// to encoding/csv mid-file), out-of-order and duplicate DNS rounds,
// spilled run histories, sample dates shared across vantages, and ids
// inside and outside the dense ranges.
func hostileDB() *store.DB {
	db := store.NewDB()
	db.Reserve(48, 1<<20, 16)
	hosts := map[alexa.SiteID]string{
		20:        "comma,host.example",
		21:        `quote"host.example`,
		22:        "new\nline.example",
		23:        " leading-space.example",
		24:        `\.`,
		25:        "",
		1<<20 + 3: "ext,quoted",
	}
	ids := []alexa.SiteID{}
	for id := alexa.SiteID(0); id < 40; id++ {
		ids = append(ids, id)
	}
	for id := alexa.SiteID(1 << 20); id < 1<<20+12; id++ {
		ids = append(ids, id)
	}
	ids = append(ids, 7_000_000, 1<<45)
	base := time.Date(2011, 2, 3, 0, 0, 0, 0, time.UTC)
	for _, id := range ids {
		host, ok := hosts[id]
		if !ok {
			host = alexa.HostName(id)
		}
		db.PutSite(store.SiteRow{Site: id, Host: host, FirstRank: int(id%997) + 1, V4AS: int(id % 13), V6AS: int(id%5) - 1})
		for _, v := range []store.Vantage{"penn", "v,6 lab"} {
			for round := 0; round < 8; round++ {
				dual := round >= int(id%6)
				flap := id%7 == 0 && round%2 == 1 // spills past the inline runs
				db.AddDNS(v, store.DNSRow{Site: id, Round: round, HasA: true, HasAAAA: dual && !flap, Identical: dual && id%3 != 0})
				if dual && !flap {
					date := base.AddDate(0, 0, 7*round)
					for _, fam := range []topo.Family{topo.V4, topo.V6} {
						db.AddSample(v, id, fam, store.Sample{
							Round: round, Date: date, PageBytes: 1000 + int(id), Downloads: 3 + round%4,
							MeanSpeed: 100.0/float64(round+1) + float64(fam), CIOK: round%3 != 2,
						})
					}
				}
			}
			if id%9 == 0 {
				db.AddDNS(v, store.DNSRow{Site: id, Round: 2, HasA: true})                // out of order
				db.AddDNS(v, store.DNSRow{Site: id, Round: 7, HasA: true, HasAAAA: true}) // duplicate round
			}
		}
	}
	for _, v := range []store.Vantage{"penn", "v,6 lab"} {
		db.AddPath(v, topo.V4, 9, 0, []int{2, 5, 9})
		db.AddPath(v, topo.V4, 9, 3, []int{2, 7, 9})
		db.AddPath(v, topo.V6, 9, 0, []int{2, 6, 8, 9})
		db.AddPath(v, topo.V6, 4, 1, nil)
	}
	return db
}

func TestLoadHostileRoundTrip(t *testing.T) {
	db := hostileDB()
	dir, want := savedFiles(t, db)
	if !bytes.Contains(want["sites.csv"], []byte(`"comma,host.example"`)) || !bytes.Contains(want["dns.csv"], []byte(`"v,6 lab"`)) {
		t.Fatal("fixture no longer makes Save quote fields; the hand-off is untested")
	}
	loaded := reloadIdentical(t, dir, want)
	if got, want := rendered(loaded), rendered(db); got != want {
		t.Fatalf("loaded database renders differently:\n%s\nwant:\n%s", got, want)
	}
}

// TestNoReserveOnLoadedDB pins that a database returned by Load is
// never reserved again: Load derives its own dense ranges from the
// data, and Reserve panics on a different extended base. Callers that
// need a campaign's ranges Merge the loaded database into a fresh,
// reserved store instead (core.Resume, the daemon's completed-campaign
// load). Every Reserve call site in the program is listed here with
// the store it reserves; a new one fails this test until it is
// checked against that contract and added.
func TestNoReserveOnLoadedDB(t *testing.T) {
	allowed := map[string]string{
		"internal/core/core.go: cat":         "the scenario's fresh catalog",
		"internal/core/core.go: s.DB":        "the scenario's fresh store",
		"internal/core/runner.go: s.Catalog": "the scenario's catalog, between rounds",
		"internal/core/runner.go: s.DB":      "the scenario's store, between rounds; resume merges loaded rows into it",
		"internal/core/runner.go: staging":   "a fresh World IPv6 Day staging store",
		"internal/core/runner.go: s.V6DayDB": "the scenario's World IPv6 Day store",
		"internal/store/binary.go: db":       "the binary decoder's own fresh store",
		"internal/store/csv.go: db":          "Load's own reservation, derived before any row lands",
	}
	root := filepath.Join("..", "..")
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name == "v6bench" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Reserve" {
				found = append(found, filepath.ToSlash(rel)+": "+exprString(sel.X))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(found)
	seen := make(map[string]bool)
	for _, site := range found {
		seen[site] = true
		if _, ok := allowed[site]; !ok {
			t.Errorf("unreviewed Reserve call %q: a database from store.Load must be merged into a fresh store, never reserved", site)
		}
	}
	for site := range allowed {
		if !seen[site] {
			t.Errorf("allowed Reserve call %q no longer exists; drop it from the list", site)
		}
	}
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "?"
}
