package store

import (
	"bufio"
	"bytes"
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
	"unicode"
	"unicode/utf8"

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
// if needed. Every file streams row by row in the tables' canonical
// iteration order — no sorted whole-table copy is ever materialized,
// so saving a paper-scale database needs O(1) extra memory. Rows are
// append-encoded into one owned buffer per file (see csvFile). Each
// file is fsynced as it closes and dir is fsynced last, so a returned
// nil means the database survives power loss.
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

// csvFlushAt is the fill level at which a csvFile hands its buffer to
// the file; the buffer is allocated with room for one more typical row
// past it, so it grows only for a row longer than that slack.
const (
	csvBufSize = 1 << 16
	csvFlushAt = csvBufSize - 1<<12
)

// csvFile is a row-at-a-time CSV writer over one owned buffer: the
// save loops append each row's bytes to buf and call endRow, which
// writes buf to the file once it nears csvBufSize. Write errors latch;
// close reports the first one.
type csvFile struct {
	f   *os.File
	buf []byte
	err error
}

// createCSV creates path and buffers its header. Header names are
// plain identifiers, which encoding/csv never quotes.
func createCSV(path string, header []string) (*csvFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &csvFile{f: f, buf: make([]byte, 0, csvBufSize)}
	w.buf = append(w.buf, strings.Join(header, ",")...)
	w.endRow()
	return w, nil
}

// endRow terminates the row appended to buf.
func (w *csvFile) endRow() {
	w.buf = append(w.buf, '\n')
	if len(w.buf) >= csvFlushAt {
		w.flush()
	}
}

func (w *csvFile) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.f.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

func (w *csvFile) close() error {
	w.flush()
	if w.err == nil {
		w.err = w.f.Sync()
	}
	if err := w.f.Close(); w.err == nil {
		w.err = err
	}
	return w.err
}

// appendField appends s to dst as one CSV field, quoted exactly when
// encoding/csv.Writer (default Comma, UseCRLF false) would quote it:
// when s is `\.`, holds a comma, quote, CR or LF, or starts with a
// unicode.IsSpace rune; the empty field is never quoted. Inside quotes
// a quote is doubled and CR and LF are copied verbatim. FuzzCSVWriter
// checks the rule against encoding/csv. Only free text (hosts and
// vantage names) goes through here: integers, booleans and floats
// never need quoting.
func appendField(dst []byte, s string) []byte {
	if !fieldNeedsQuotes(s) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		dst = append(dst, s[:i+1]...)
		dst = append(dst, '"')
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

func fieldNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` || strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// The header each file starts with; Load requires it verbatim.
var (
	sitesHeader   = []string{"site", "host", "first_rank", "v4_as", "v6_as"}
	dnsHeader     = []string{"vantage", "site", "round", "has_a", "has_aaaa", "identical"}
	samplesHeader = []string{"vantage", "site", "family", "round", "date", "page_bytes", "downloads", "mean_speed", "ci_ok"}
	pathsHeader   = []string{"vantage", "family", "dst", "round", "path"}
)

func (db *DB) saveSites(path string) error {
	w, err := createCSV(path, sitesHeader)
	if err != nil {
		return err
	}
	db.forEachSite(func(r SiteRow) {
		w.buf = strconv.AppendInt(w.buf, int64(r.Site), 10)
		w.buf = append(w.buf, ',')
		w.buf = appendField(w.buf, r.Host)
		w.buf = append(w.buf, ',')
		w.buf = appendInts(w.buf, ',', r.FirstRank, r.V4AS, r.V6AS)
		w.endRow()
	})
	return w.close()
}

// dnsOutcomes holds the ",has_a,has_aaaa,identical" tail of a dns.csv
// row for each of the 8 outcomes, indexed by dnsOutcome.
var dnsOutcomes = func() (t [8]string) {
	for i := range t {
		t[i] = "," + strconv.FormatBool(i&4 != 0) + "," + strconv.FormatBool(i&2 != 0) + "," + strconv.FormatBool(i&1 != 0)
	}
	return t
}()

func dnsOutcome(r DNSRow) int {
	i := 0
	if r.HasA {
		i |= 4
	}
	if r.HasAAAA {
		i |= 2
	}
	if r.Identical {
		i |= 1
	}
	return i
}

// saveDNS writes the walker's rows, re-encoding only what changes: the
// "vantage,site," prefix is rebuilt when the site does, the outcome
// tail comes from dnsOutcomes, and each row formats just its round.
func (db *DB) saveDNS(path string) error {
	w, err := createCSV(path, dnsHeader)
	if err != nil {
		return err
	}
	// The walker's canonical (site, round) order is the file's order:
	// workers append concurrently, so equal databases must serialize to
	// byte-identical files — checkpoint/resume correctness is verified
	// by comparing saved CSVs.
	var prefix []byte
	for _, v := range db.Vantages() {
		vantage := appendField(nil, string(v))
		prefix = prefix[:0]
		var site alexa.SiteID
		db.ForEachDNS(v, func(r DNSRow) {
			if len(prefix) == 0 || r.Site != site {
				site = r.Site
				prefix = append(append(prefix[:0], vantage...), ',')
				prefix = append(strconv.AppendInt(prefix, int64(site), 10), ',')
			}
			w.buf = append(w.buf, prefix...)
			w.buf = strconv.AppendInt(w.buf, int64(r.Round), 10)
			w.buf = append(w.buf, dnsOutcomes[dnsOutcome(r)]...)
			w.endRow()
		})
	}
	return w.close()
}

func (db *DB) saveSamples(path string) error {
	w, err := createCSV(path, samplesHeader)
	if err != nil {
		return err
	}
	// Rounds share dates across sites and vantages, so each distinct
	// date is formatted once. RFC 3339 without fractional seconds is a
	// function of the Unix second, which makes that an exact key.
	dates := make(map[int64][]byte)
	var prefix []byte
	for _, v := range db.Vantages() {
		vantage := appendField(nil, string(v))
		db.ForEachSeries(v, func(site alexa.SiteID, fam topo.Family, ss []Sample) {
			prefix = append(append(prefix[:0], vantage...), ',')
			prefix = append(strconv.AppendInt(prefix, int64(site), 10), ',')
			prefix = append(strconv.AppendInt(prefix, int64(fam), 10), ',')
			for _, smp := range ss {
				sec := smp.Date.Unix()
				date, ok := dates[sec]
				if !ok {
					date = smp.Date.UTC().AppendFormat(nil, time.RFC3339)
					dates[sec] = date
				}
				w.buf = append(w.buf, prefix...)
				w.buf = strconv.AppendInt(w.buf, int64(smp.Round), 10)
				w.buf = append(append(append(w.buf, ','), date...), ',')
				w.buf = appendInts(w.buf, ',', smp.PageBytes, smp.Downloads)
				w.buf = append(w.buf, ',')
				w.buf = strconv.AppendFloat(w.buf, smp.MeanSpeed, 'g', 17, 64)
				w.buf = append(w.buf, ',')
				w.buf = strconv.AppendBool(w.buf, smp.CIOK)
				w.endRow()
			}
		})
	}
	return w.close()
}

func (db *DB) savePaths(path string) error {
	w, err := createCSV(path, pathsHeader)
	if err != nil {
		return err
	}
	for _, v := range db.Vantages() {
		vantage := appendField(nil, string(v))
		t := db.lookup(v)
		t.pathMu.Lock()
		for _, k := range t.sortedPathKeys() {
			for _, snap := range t.paths[k] {
				w.buf = append(append(w.buf, vantage...), ',')
				w.buf = appendInts(w.buf, ',', int(k.fam), k.dst, snap.Round)
				w.buf = append(w.buf, ',')
				w.buf = appendInts(w.buf, ';', snap.Path...)
				w.endRow()
			}
		}
		t.pathMu.Unlock()
	}
	return w.close()
}

// sortedPathKeys returns t's path keys in (family, destination) order.
// The caller holds t.pathMu.
func (t *vantageTable) sortedPathKeys() []famDstKey {
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
	return keys
}

// appendInts appends xs in decimal, sep between them.
func appendInts(dst []byte, sep byte, xs ...int) []byte {
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return dst
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
//
// Load builds the same columnar layout a campaign does: the dense id
// ranges are derived from sites.csv (see deriveReservation) before any
// row lands, so a saved campaign loads into index-addressed tables
// rather than overflow maps. Every file must start with the header
// Save writes; a malformed row fails with an error naming the file
// and the data row.
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
	for _, load := range []func(*DB, string) error{loadSites, loadDNS, loadSamples, loadPaths} {
		if err := load(db, dir); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// loadSites reads sites.csv twice: a first pass collects the ids to
// derive and reserve the dense ranges, the second stores the rows.
// Hosts equal to the canonical derivation are recognized without
// building a string.
func loadSites(db *DB, dir string) error {
	var ids []alexa.SiteID
	if err := readCSV(dir, sitesFile, sitesHeader, func(rec csvRecord) error {
		id, err := parseSiteID(rec.field(0))
		ids = append(ids, id)
		return err
	}); err != nil {
		return err
	}
	if res := deriveReservation(ids); res.main > 0 || res.ext > 0 {
		db.Reserve(res.main, res.extBase, res.ext)
	}
	ids = nil
	var hostBuf [40]byte
	return readCSV(dir, sitesFile, sitesHeader, func(rec csvRecord) error {
		id, err := parseSiteID(rec.field(0))
		if err != nil {
			return err
		}
		fr, err := atoi(rec.field(2))
		if err != nil {
			return err
		}
		v4, err := atoi(rec.field(3))
		if err != nil {
			return err
		}
		v6, err := atoi(rec.field(4))
		if err != nil {
			return err
		}
		row := SiteRow{Site: id, FirstRank: fr, V4AS: v4, V6AS: v6}
		table, _ := db.res.locate(id)
		if table < 0 || string(rec.field(1)) != string(alexa.AppendHostName(hostBuf[:0], id)) {
			row.Host = string(rec.field(1))
			db.PutSite(row)
			return nil
		}
		sh := db.siteShard(id) // canonical host: putDense stores none
		sh.mu.Lock()
		sh.putDense(db.res, row, true)
		sh.mu.Unlock()
		return nil
	})
}

// deriveReservation picks the dense id ranges for a loaded database
// from its sites.csv ids, which Save writes in ascending order: a main
// range [0, m) and an extended range starting at the first id past it,
// rounded down to a multiple of the shard count. Each range is the
// longest run of ids whose span is at most twice the ids it covers,
// which bounds the dense allocation by the input size (the binary
// loader's plausibility rule). Unsorted ids reserve nothing; ids past
// either range load into the overflow maps, which stay correct.
func deriveReservation(ids []alexa.SiteID) reservation {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return reservation{}
		}
	}
	var res reservation
	k := densePrefix(ids, 0)
	if k > 0 {
		res.main = int(ids[k-1]) + 1
	}
	if rest := ids[k:]; len(rest) > 0 {
		base := rest[0] &^ (shards - 1)
		if base >= alexa.SiteID(res.main) {
			if n := densePrefix(rest, base); n > 0 {
				res.extBase, res.ext = base, int(rest[n-1]-base)+1
			}
		}
	}
	return res
}

// densePrefix returns the largest k such that ids[:k] (ascending, none
// below base) lies within [base, base+2k).
func densePrefix(ids []alexa.SiteID, base alexa.SiteID) int {
	k := 0
	for i, id := range ids {
		if id >= base && uint64(id-base) < 2*uint64(i+1) {
			k = i + 1
		}
	}
	return k
}

// shardBatches buffers one vantage's rows by site-id shard: a shard
// lock is taken once per loadBatch rows, and a site's rows — always in
// one shard — keep their file order.
type shardBatches[T any] struct {
	rows  [shards][]T
	apply func(shard int, rows []T)
}

const loadBatch = 1024

func (b *shardBatches[T]) add(site alexa.SiteID, row T) {
	i := int(uint64(site) & (shards - 1))
	b.rows[i] = append(b.rows[i], row)
	if len(b.rows[i]) == loadBatch {
		b.apply(i, b.rows[i])
		b.rows[i] = b.rows[i][:0]
	}
}

func (b *shardBatches[T]) flush() {
	for i, rows := range b.rows {
		if len(rows) > 0 {
			b.apply(i, rows)
			b.rows[i] = rows[:0]
		}
	}
}

// vantageCursor tracks the vantage of the rows being read. Save writes
// each vantage's rows as one block, so the table is looked up — and
// the name interned — once per block rather than once per row.
type vantageCursor struct {
	db   *DB
	name Vantage
	t    *vantageTable
}

// at returns the table of the row's vantage field. When that differs
// from the current vantage, leave (if non-nil) runs first, while the
// cursor still points at the block being left.
func (c *vantageCursor) at(field []byte, leave func()) *vantageTable {
	if c.t == nil || string(field) != string(c.name) {
		c.enter(field, leave)
	}
	return c.t
}

func (c *vantageCursor) enter(field []byte, leave func()) {
	if leave != nil {
		leave()
	}
	c.name = Vantage(field)
	c.t = c.db.table(c.name)
}

func loadDNS(db *DB, dir string) error {
	cur := vantageCursor{db: db}
	b := shardBatches[DNSRow]{apply: func(i int, rows []DNSRow) { cur.t.addDNSShard(db.res, i, rows) }}
	leave := b.flush
	err := readCSV(dir, dnsFile, dnsHeader, func(rec csvRecord) error {
		site, err := parseSiteID(rec.field(1))
		if err != nil {
			return err
		}
		round, err := atoi(rec.field(2))
		if err != nil {
			return err
		}
		cur.at(rec.field(0), leave)
		b.add(site, DNSRow{
			Site: site, Round: round,
			HasA: isTrue(rec.field(3)), HasAAAA: isTrue(rec.field(4)), Identical: isTrue(rec.field(5)),
		})
		return nil
	})
	if err != nil {
		return err
	}
	b.flush()
	return nil
}

func loadSamples(db *DB, dir string) error {
	cur := vantageCursor{db: db}
	b := shardBatches[siteSample]{apply: func(i int, rows []siteSample) { cur.t.addSampleShard(db.res, i, rows) }}
	// Every sample of a round shares one date string: parse each
	// distinct string once, and resolve it against the current
	// vantage's date dictionary once per vantage block.
	parsed := make(map[string]time.Time)
	dateRefs := make(map[string]int32)
	leave := func() {
		b.flush()
		clear(dateRefs)
	}
	err := readCSV(dir, samplesFile, samplesHeader, func(rec csvRecord) error {
		site, err := parseSiteID(rec.field(1))
		if err != nil {
			return err
		}
		fam, err := atoi(rec.field(2))
		if err != nil {
			return err
		}
		if fam != int(topo.V4) && fam != int(topo.V6) {
			return fmt.Errorf("family %d is neither %d (v4) nor %d (v6)", fam, topo.V4, topo.V6)
		}
		round, err := atoi(rec.field(3))
		if err != nil {
			return err
		}
		page, err := atoi(rec.field(5))
		if err != nil {
			return err
		}
		dls, err := atoi(rec.field(6))
		if err != nil {
			return err
		}
		speed, err := strconv.ParseFloat(string(rec.field(7)), 64)
		if err != nil {
			return err
		}
		t := cur.at(rec.field(0), leave)
		dateIdx, ok := dateRefs[string(rec.field(4))]
		if !ok {
			date, ok := parsed[string(rec.field(4))]
			if !ok {
				if date, err = time.Parse(time.RFC3339, string(rec.field(4))); err != nil {
					return err
				}
				parsed[string(rec.field(4))] = date
			}
			dateIdx = t.dateRef(date)
			dateRefs[string(rec.field(4))] = dateIdx
		}
		b.add(site, siteSample{site: site, fam: topo.Family(fam), p: packSample(Sample{
			Round: round, PageBytes: page, Downloads: dls, MeanSpeed: speed, CIOK: isTrue(rec.field(8)),
		}, dateIdx)})
		return nil
	})
	if err != nil {
		return err
	}
	b.flush()
	return nil
}

func loadPaths(db *DB, dir string) error {
	cur := vantageCursor{db: db}
	var hops []int
	return readCSV(dir, pathsFile, pathsHeader, func(rec csvRecord) error {
		fam, err := atoi(rec.field(1))
		if err != nil {
			return err
		}
		dst, err := atoi(rec.field(2))
		if err != nil {
			return err
		}
		round, err := atoi(rec.field(3))
		if err != nil {
			return err
		}
		if hops, err = splitInts(hops[:0], rec.field(4)); err != nil {
			return err
		}
		cur.at(rec.field(0), nil).addPath(topo.Family(fam), dst, round, hops)
		return nil
	})
}

// splitInts parses a path field (appendInts with ';') into dst; an empty field is an
// empty path.
func splitInts(dst []int, field []byte) ([]int, error) {
	if len(field) == 0 {
		return dst, nil
	}
	for {
		part := field
		i := bytes.IndexByte(field, ';')
		if i >= 0 {
			part = field[:i]
		}
		v, err := atoi(part)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		if i < 0 {
			return dst, nil
		}
		field = field[i+1:]
	}
}

// isTrue is strconv.FormatBool's inverse as Load has always read it:
// exactly "true" is true, anything else false.
func isTrue(field []byte) bool { return string(field) == "true" }

// fastInt parses an optional '-' and 1..maxDigits decimal digits —
// the only form Save writes — without allocating. ok=false sends the
// caller to strconv, which decides every other input (and the error
// text) exactly as before.
func fastInt(b []byte, maxDigits int) (n int64, ok bool) {
	d := b
	if len(d) > 0 && d[0] == '-' {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > maxDigits {
		return 0, false
	}
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if len(d) < len(b) {
		n = -n
	}
	return n, true
}

// atoiDigits is the longest digit string that cannot overflow an int.
const atoiDigits = 9 + 9*(strconv.IntSize/64)

// atoi is strconv.Atoi over a field.
func atoi(b []byte) (int, error) {
	if n, ok := fastInt(b, atoiDigits); ok {
		return int(n), nil
	}
	return strconv.Atoi(string(b))
}

// parseSiteID is strconv.ParseInt(field, 10, 64) as a site id.
func parseSiteID(b []byte) (alexa.SiteID, error) {
	if n, ok := fastInt(b, 18); ok {
		return alexa.SiteID(n), nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	return alexa.SiteID(n), err
}

// readCSV streams the data rows of dir/name through fn, O(1) memory
// in the file size. The file must start with header; every row must
// have its field count and end in a newline (Save writes one after
// each row, so a missing final newline is a truncated file). Errors
// name the file and the 1-based data row. Fields alias the reader's
// buffer and are valid only during fn.
func readCSV(dir, name string, header []string, fn func(csvRecord) error) error {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	tail := &lastByteReader{r: f}
	r := newCSVReader(tail)
	rec, err := r.next()
	switch {
	case err == io.EOF:
		return fmt.Errorf("store: %s: empty file, want header %q", name, strings.Join(header, ","))
	case err != nil:
		return fmt.Errorf("store: %s header: %w", name, csvCause(err))
	case !fieldsEqual(rec, header):
		return fmt.Errorf("store: %s header is %q, want %q", name, rec.buf, strings.Join(header, ","))
	}
	for row := 1; ; row++ {
		rec, err := r.next()
		if err == io.EOF {
			if tail.last != '\n' {
				last := fmt.Sprintf("row %d", row-1)
				if row == 1 {
					last = "header"
				}
				return fmt.Errorf("store: %s %s: truncated (no newline at end of file)", name, last)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: %s row %d: %w", name, row, csvCause(err))
		}
		if rec.len() != len(header) {
			return fmt.Errorf("store: %s row %d has %d fields, want %d", name, row, rec.len(), len(header))
		}
		if err := fn(rec); err != nil {
			return fmt.Errorf("store: %s row %d: %w", name, row, err)
		}
	}
}

// csvCause strips encoding/csv's position prefix: its line numbers
// count from the hand-off point, not from the top of the file, so
// readCSV's own row number replaces them.
func csvCause(err error) error {
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		return pe.Err
	}
	return err
}

func fieldsEqual(rec csvRecord, want []string) bool {
	if rec.len() != len(want) {
		return false
	}
	for i := range want {
		if string(rec.field(i)) != want[i] {
			return false
		}
	}
	return true
}

// lastByteReader remembers the last byte read through it.
type lastByteReader struct {
	r    io.Reader
	last byte
}

func (l *lastByteReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	if n > 0 {
		l.last = p[n-1]
	}
	return n, err
}

// csvRecord is one CSV record: field i is buf[ends[i-1]+1 : ends[i]]
// (the first field starts at 0), so splitting a line stores one int per
// field rather than a slice header.
type csvRecord struct {
	buf  []byte
	ends []int
}

func (r csvRecord) len() int { return len(r.ends) }

func (r csvRecord) field(i int) []byte {
	start := 0
	if i > 0 {
		start = r.ends[i-1] + 1
	}
	return r.buf[start:r.ends[i]]
}

// csvReader yields the records of a CSV stream exactly as
// encoding/csv (default settings, FieldsPerRecord = -1) would, at a
// fraction of the cost for what Save writes: a line without a quote or
// carriage return is one record whose fields are its comma-separated
// spans of the read buffer. The first line that contains either byte
// — a host or vantage Save had to quote, or CRLF line ends — hands
// that line and the rest of the stream to an encoding/csv.Reader. The
// hand-off happens at a line boundary outside any quoted field, where
// encoding/csv's state is "start of record", so it is exact by
// construction.
type csvReader struct {
	br   *bufio.Reader
	long []byte // a line longer than br's buffer, reassembled
	rec  csvRecord
	slow *csv.Reader // non-nil after the hand-off
}

func newCSVReader(r io.Reader) *csvReader {
	return &csvReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// next returns the next record, or io.EOF at the end of the stream.
// The record is valid until the following call.
func (r *csvReader) next() (csvRecord, error) {
	if r.slow != nil {
		return r.nextSlow()
	}
	for {
		line, err := r.readLine()
		if len(line) == 0 {
			if err == nil {
				continue
			}
			return csvRecord{}, err
		}
		if err != nil && err != io.EOF {
			return csvRecord{}, err
		}
		body := line
		if body[len(body)-1] == '\n' {
			body = body[:len(body)-1]
		}
		if len(body) == 0 {
			continue // encoding/csv skips empty lines
		}
		// One pass splits the line and watches for the bytes that need
		// full CSV parsing; every byte above '"' other than ',' is
		// plain field content.
		ends := r.rec.ends[:0]
		for i, c := range body {
			if c > '"' && c != ',' {
				continue
			}
			if c == ',' {
				ends = append(ends, i)
			} else if c == '"' || c == '\r' {
				r.slow = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), r.br))
				r.slow.FieldsPerRecord = -1
				r.slow.ReuseRecord = true
				return r.nextSlow()
			}
		}
		r.rec = csvRecord{buf: body, ends: append(ends, len(body))}
		return r.rec, nil
	}
}

// readLine returns the next line including its '\n' (absent only on
// the last line of the stream).
func (r *csvReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	r.long = append(r.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.br.ReadSlice('\n')
		r.long = append(r.long, line...)
	}
	return r.long, err
}

// nextSlow reads a record through encoding/csv and lays its fields out
// as a csvRecord, one separator byte apart.
func (r *csvReader) nextSlow() (csvRecord, error) {
	fields, err := r.slow.Read()
	if err != nil {
		return csvRecord{}, err
	}
	buf, ends := r.long[:0], r.rec.ends[:0]
	for i, f := range fields {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, f...)
		ends = append(ends, len(buf))
	}
	r.long = buf
	r.rec = csvRecord{buf: buf, ends: ends}
	return r.rec, nil
}
