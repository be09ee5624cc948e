package store_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/core"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// oddValuesDB holds values at the edges of what Save formats: sample
// speeds that print as NaN, +Inf, -0, a subnormal and a large
// exponent; dates in another zone, before 1970 and with sub-second
// parts (two of which share a Unix second); and negative AS numbers
// and ranks.
func oddValuesDB() *store.DB {
	db := store.NewDB()
	db.PutSite(store.SiteRow{Site: 1, Host: "odd.example", FirstRank: -3, V4AS: -70000, V6AS: -1})
	db.PutSite(store.SiteRow{Site: 2, Host: "\u00a0nbsp.example", FirstRank: 0, V4AS: math.MinInt32, V6AS: math.MaxInt32})
	zone := time.FixedZone("UTC+5:30", 5*3600+1800)
	base := time.Date(2011, 6, 8, 0, 0, 0, 999_999_999, zone)
	speeds := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, math.SmallestNonzeroFloat64 * 3, 1e300, 1.0 / 3}
	for i, speed := range speeds {
		date := base.Add(time.Duration(i) * time.Hour)
		switch i {
		case 1:
			date = base.Add(-500 * time.Millisecond) // same Unix second as base
		case 2:
			date = time.Date(1969, 12, 31, 23, 59, 59, 1, time.UTC)
		}
		for _, site := range []alexa.SiteID{1, 2} {
			db.AddSample("penn", site, topo.V6, store.Sample{
				Round: i - 2, Date: date, PageBytes: -i, Downloads: i, MeanSpeed: speed, CIOK: i%2 == 0,
			})
		}
	}
	db.AddDNS("penn", store.DNSRow{Site: 1, Round: -1, HasA: false, HasAAAA: true, Identical: true})
	db.AddPath("penn", topo.V6, -4, -2, []int{-1, 0, -65536})
	return db
}

// idleVantageDB holds a vantage with no rows at all, as a sharded merge
// leaves one whose shards contributed nothing.
func idleVantageDB(t *testing.T) *store.DB {
	t.Helper()
	src := store.NewDB()
	src.Reserve(16, 1<<20, 16)
	payload, _, err := src.AppendShardSection(nil, store.ShardDNS, "idle", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDB()
	db.Reserve(16, 1<<20, 16)
	if err := db.MergeShard(0, 16, store.ShardDNS, "idle", payload); err != nil {
		t.Fatal(err)
	}
	if vs := db.Vantages(); len(vs) != 1 {
		t.Fatalf("merged database has vantages %v, want just the idle one", vs)
	}
	return db
}

func shortCampaignDB(t *testing.T) *store.DB {
	t.Helper()
	cfg := core.DefaultConfig(9)
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
	return s.DB
}

// TestSaveMatchesEncodingCSV pins Save's append encoder to the
// encoding/csv reference encoder, file by file. Round-trip tests
// cannot catch a writer drift, because both of their saves share it.
func TestSaveMatchesEncodingCSV(t *testing.T) {
	for name, db := range map[string]*store.DB{
		"hostile":        hostileDB(),
		"odd-values":     oddValuesDB(),
		"idle-vantage":   idleVantageDB(t),
		"short-campaign": shortCampaignDB(t),
		"empty":          store.NewDB(),
	} {
		t.Run(name, func(t *testing.T) {
			_, got := savedFiles(t, db)
			ref := t.TempDir()
			if err := store.SaveEncodingCSV(db, ref); err != nil {
				t.Fatal(err)
			}
			for file, data := range got {
				want, err := os.ReadFile(filepath.Join(ref, file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, want) {
					i := 0
					for i < len(data) && i < len(want) && data[i] == want[i] {
						i++
					}
					t.Errorf("%s differs from encoding/csv at byte %d of %d/%d:\nSave         %q\nencoding/csv %q",
						file, i, len(data), len(want), window(data, i), window(want, i))
				}
			}
		})
	}
}

// window returns up to 40 bytes of b around offset i.
func window(b []byte, i int) []byte {
	lo, hi := max(i-20, 0), min(i+20, len(b))
	return b[min(lo, hi):hi]
}
