package store

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// SaveEncodingCSV is the reference encoder behind Save's byte-identity
// tests: the same four files in the same canonical order, every row
// written field by field through encoding/csv.Writer. It exists only
// as a test oracle; Save's append encoder must match it byte for byte.
func SaveEncodingCSV(db *DB, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, save := range []func(*DB, string) error{refSaveSites, refSaveDNS, refSaveSamples, refSavePaths} {
		if err := save(db, dir); err != nil {
			return err
		}
	}
	return nil
}

// refFile writes one reference file: header, then the rows fill emits.
func refFile(path string, header []string, fill func(row func(...string))) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	werr := w.Write(header)
	fill(func(fields ...string) {
		if werr == nil {
			werr = w.Write(fields)
		}
	})
	w.Flush()
	if werr == nil {
		werr = w.Error()
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	return werr
}

func refSaveSites(db *DB, dir string) error {
	return refFile(filepath.Join(dir, sitesFile), sitesHeader, func(row func(...string)) {
		db.forEachSite(func(r SiteRow) {
			row(strconv.FormatInt(int64(r.Site), 10), r.Host,
				strconv.Itoa(r.FirstRank), strconv.Itoa(r.V4AS), strconv.Itoa(r.V6AS))
		})
	})
}

func refSaveDNS(db *DB, dir string) error {
	return refFile(filepath.Join(dir, dnsFile), dnsHeader, func(row func(...string)) {
		for _, v := range db.Vantages() {
			vs := string(v)
			db.ForEachDNS(v, func(r DNSRow) {
				row(vs, strconv.FormatInt(int64(r.Site), 10), strconv.Itoa(r.Round),
					strconv.FormatBool(r.HasA), strconv.FormatBool(r.HasAAAA), strconv.FormatBool(r.Identical))
			})
		}
	})
}

func refSaveSamples(db *DB, dir string) error {
	return refFile(filepath.Join(dir, samplesFile), samplesHeader, func(row func(...string)) {
		for _, v := range db.Vantages() {
			vs := string(v)
			db.ForEachSeries(v, func(site alexa.SiteID, fam topo.Family, ss []Sample) {
				for _, smp := range ss {
					row(vs, strconv.FormatInt(int64(site), 10), strconv.Itoa(int(fam)),
						strconv.Itoa(smp.Round), smp.Date.UTC().Format(time.RFC3339),
						strconv.Itoa(smp.PageBytes), strconv.Itoa(smp.Downloads),
						strconv.FormatFloat(smp.MeanSpeed, 'g', 17, 64), strconv.FormatBool(smp.CIOK))
				}
			})
		}
	})
}

func refSavePaths(db *DB, dir string) error {
	return refFile(filepath.Join(dir, pathsFile), pathsHeader, func(row func(...string)) {
		for _, v := range db.Vantages() {
			t := db.lookup(v)
			t.pathMu.Lock()
			for _, k := range t.sortedPathKeys() {
				for _, snap := range t.paths[k] {
					hops := make([]string, len(snap.Path))
					for i, x := range snap.Path {
						hops[i] = strconv.Itoa(x)
					}
					row(string(v), strconv.Itoa(int(k.fam)), strconv.Itoa(k.dst),
						strconv.Itoa(snap.Round), strings.Join(hops, ";"))
				}
			}
			t.pathMu.Unlock()
		}
	})
}
