package store

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// File names used by Save/Load.
const (
	sitesFile   = "sites.csv"
	dnsFile     = "dns.csv"
	samplesFile = "samples.csv"
	pathsFile   = "paths.csv"
)

// Save writes the database as four CSV files under dir, creating it
// if needed. Every file streams row by row through a bufio.Writer in
// the tables' canonical iteration order — no sorted whole-table copy
// is ever materialized, so saving a paper-scale database needs O(1)
// extra memory. Each file is fsynced as it closes and dir is fsynced
// last, so a returned nil means the database survives power loss.
func (db *DB) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := db.saveSites(filepath.Join(dir, sitesFile)); err != nil {
		return err
	}
	if err := db.saveDNS(filepath.Join(dir, dnsFile)); err != nil {
		return err
	}
	if err := db.saveSamples(filepath.Join(dir, samplesFile)); err != nil {
		return err
	}
	if err := db.savePaths(filepath.Join(dir, pathsFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// csvStream is a row-at-a-time CSV writer: csv encoding on top of a
// bufio.Writer on top of the file.
type csvStream struct {
	f   *os.File
	bw  *bufio.Writer
	w   *csv.Writer
	err error
}

func newCSVStream(path string, header []string) (*csvStream, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	s := &csvStream{f: f, bw: bw, w: csv.NewWriter(bw)}
	if err := s.w.Write(header); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// row writes one record built from fields. Errors latch; close
// reports the first one.
func (s *csvStream) row(fields ...string) {
	if s.err != nil {
		return
	}
	s.err = s.w.Write(fields)
}

func (s *csvStream) close() error {
	s.w.Flush()
	if s.err == nil {
		s.err = s.w.Error()
	}
	if err := s.bw.Flush(); s.err == nil {
		s.err = err
	}
	if s.err == nil {
		s.err = s.f.Sync()
	}
	if err := s.f.Close(); s.err == nil {
		s.err = err
	}
	return s.err
}

func (db *DB) saveSites(path string) error {
	s, err := newCSVStream(path, []string{"site", "host", "first_rank", "v4_as", "v6_as"})
	if err != nil {
		return err
	}
	db.forEachSite(func(r SiteRow) {
		s.row(strconv.FormatInt(int64(r.Site), 10), r.Host,
			strconv.Itoa(r.FirstRank), strconv.Itoa(r.V4AS), strconv.Itoa(r.V6AS))
	})
	return s.close()
}

func (db *DB) saveDNS(path string) error {
	s, err := newCSVStream(path, []string{"vantage", "site", "round", "has_a", "has_aaaa", "identical"})
	if err != nil {
		return err
	}
	// The walker's canonical (site, round) order is the file's order:
	// workers append concurrently, so equal databases must serialize to
	// byte-identical files — checkpoint/resume correctness is verified
	// by comparing saved CSVs.
	for _, v := range db.Vantages() {
		vs := string(v)
		db.ForEachDNS(v, func(r DNSRow) {
			s.row(vs, strconv.FormatInt(int64(r.Site), 10), strconv.Itoa(r.Round),
				strconv.FormatBool(r.HasA), strconv.FormatBool(r.HasAAAA), strconv.FormatBool(r.Identical))
		})
	}
	return s.close()
}

func (db *DB) saveSamples(path string) error {
	s, err := newCSVStream(path, []string{"vantage", "site", "family", "round", "date", "page_bytes", "downloads", "mean_speed", "ci_ok"})
	if err != nil {
		return err
	}
	for _, v := range db.Vantages() {
		vs := string(v)
		db.ForEachSeries(v, func(site alexa.SiteID, fam topo.Family, ss []Sample) {
			for _, smp := range ss {
				s.row(vs, strconv.FormatInt(int64(site), 10), strconv.Itoa(int(fam)),
					strconv.Itoa(smp.Round), smp.Date.UTC().Format(time.RFC3339),
					strconv.Itoa(smp.PageBytes), strconv.Itoa(smp.Downloads),
					strconv.FormatFloat(smp.MeanSpeed, 'g', 17, 64), strconv.FormatBool(smp.CIOK))
			}
		})
	}
	return s.close()
}

func (db *DB) savePaths(path string) error {
	s, err := newCSVStream(path, []string{"vantage", "family", "dst", "round", "path"})
	if err != nil {
		return err
	}
	for _, v := range db.Vantages() {
		t := db.lookup(v)
		t.pathMu.Lock()
		keys := make([]famDstKey, 0, len(t.paths))
		for k := range t.paths {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.fam != b.fam {
				return a.fam < b.fam
			}
			return a.dst < b.dst
		})
		for _, k := range keys {
			for _, snap := range t.paths[k] {
				s.row(string(v), strconv.Itoa(int(k.fam)), strconv.Itoa(k.dst),
					strconv.Itoa(snap.Round), joinInts(snap.Path))
			}
		}
		t.pathMu.Unlock()
	}
	return s.close()
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ";")
}

func splitInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ErrNoDatabase reports that a directory holds no saved database at
// all, as opposed to a partial one. Callers that treat an absent
// database as optional (e.g. the World IPv6 Day side experiment) can
// test for it with errors.Is.
var ErrNoDatabase = errors.New("no saved database")

// Load reads a database previously written by Save. A directory with
// none of the database files returns ErrNoDatabase; a partially
// written directory (some files missing, e.g. after an interrupted
// Save) returns an error naming the missing files rather than
// silently yielding an incomplete database.
func Load(dir string) (*DB, error) {
	files := []string{sitesFile, dnsFile, samplesFile, pathsFile}
	var missing []string
	for _, name := range files {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			// Only genuine absence counts as missing; a present but
			// unreadable database is an I/O error, not "no database".
			if !errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("store: load %s: %w", dir, err)
			}
			missing = append(missing, name)
		}
	}
	if len(missing) == len(files) {
		return nil, fmt.Errorf("store: %w in %s", ErrNoDatabase, dir)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("store: %s is missing %d of %d database files (%s) — partial or interrupted save",
			dir, len(missing), len(files), strings.Join(missing, ", "))
	}
	db := NewDB()
	if err := loadCSV(filepath.Join(dir, sitesFile), 5, func(rec []string) error {
		site, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return err
		}
		fr, err := strconv.Atoi(rec[2])
		if err != nil {
			return err
		}
		v4, err := strconv.Atoi(rec[3])
		if err != nil {
			return err
		}
		v6, err := strconv.Atoi(rec[4])
		if err != nil {
			return err
		}
		db.PutSite(SiteRow{Site: alexa.SiteID(site), Host: rec[1], FirstRank: fr, V4AS: v4, V6AS: v6})
		return nil
	}); err != nil {
		return nil, err
	}
	if err := loadCSV(filepath.Join(dir, dnsFile), 6, func(rec []string) error {
		site, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return err
		}
		round, err := strconv.Atoi(rec[2])
		if err != nil {
			return err
		}
		db.AddDNS(Vantage(rec[0]), DNSRow{
			Site: alexa.SiteID(site), Round: round,
			HasA: rec[3] == "true", HasAAAA: rec[4] == "true", Identical: rec[5] == "true",
		})
		return nil
	}); err != nil {
		return nil, err
	}
	if err := loadCSV(filepath.Join(dir, samplesFile), 9, func(rec []string) error {
		site, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return err
		}
		fam, err := strconv.Atoi(rec[2])
		if err != nil {
			return err
		}
		round, err := strconv.Atoi(rec[3])
		if err != nil {
			return err
		}
		date, err := time.Parse(time.RFC3339, rec[4])
		if err != nil {
			return err
		}
		page, err := strconv.Atoi(rec[5])
		if err != nil {
			return err
		}
		dls, err := strconv.Atoi(rec[6])
		if err != nil {
			return err
		}
		speed, err := strconv.ParseFloat(rec[7], 64)
		if err != nil {
			return err
		}
		db.AddSample(Vantage(rec[0]), alexa.SiteID(site), topo.Family(fam), Sample{
			Round: round, Date: date, PageBytes: page, Downloads: dls,
			MeanSpeed: speed, CIOK: rec[8] == "true",
		})
		return nil
	}); err != nil {
		return nil, err
	}
	if err := loadCSV(filepath.Join(dir, pathsFile), 5, func(rec []string) error {
		fam, err := strconv.Atoi(rec[1])
		if err != nil {
			return err
		}
		dst, err := strconv.Atoi(rec[2])
		if err != nil {
			return err
		}
		round, err := strconv.Atoi(rec[3])
		if err != nil {
			return err
		}
		p, err := splitInts(rec[4])
		if err != nil {
			return err
		}
		db.AddPath(Vantage(rec[0]), topo.Family(fam), dst, round, p)
		return nil
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// loadCSV streams a CSV file record by record — O(1) extra memory
// regardless of file size. The record slice is reused (ReuseRecord);
// field strings themselves are freshly allocated and safe to retain.
func loadCSV(path string, fields int, fn func([]string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReaderSize(f, 1<<16))
	r.ReuseRecord = true
	r.FieldsPerRecord = -1 // field counts are checked per row below
	for i := 0; ; i++ {
		rec, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("store: %s: %w", filepath.Base(path), err)
		}
		if i == 0 {
			continue // header
		}
		if len(rec) != fields {
			return fmt.Errorf("store: %s row %d has %d fields, want %d", filepath.Base(path), i, len(rec), fields)
		}
		if err := fn(rec); err != nil {
			return fmt.Errorf("store: %s row %d: %w", filepath.Base(path), i, err)
		}
	}
}
