package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// editCSV rewrites one saved file line by line; lines[0] is the
// header, lines[r] data row r.
func editCSV(t *testing.T, dir, name string, edit func(lines []string) []string) {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var out string
	if lines = edit(lines); len(lines) > 0 {
		out = strings.Join(lines, "\n") + "\n"
	}
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// setField replaces one comma-separated field of data row r.
func setField(r, field int, value string) func([]string) []string {
	return func(lines []string) []string {
		f := strings.Split(lines[r], ",")
		f[field] = value
		lines[r] = strings.Join(f, ",")
		return lines
	}
}

func TestLoadMalformedInputs(t *testing.T) {
	// Each case damages one file of a saved database; Load must fail,
	// without panicking, with an error naming the file and data row.
	truncateLastRow := func(lines []string) []string {
		last := lines[len(lines)-1]
		lines[len(lines)-1] = last[:len(last)/2]
		return lines
	}
	cases := []struct {
		name     string
		file     string
		edit     func(lines []string) []string
		noFinalN bool // write without the final newline
		want     string
	}{
		{"wrong field count", dnsFile, func(lines []string) []string {
			lines[2] = lines[2][:strings.LastIndexByte(lines[2], ',')]
			return lines
		}, false, "dns.csv row 2 has 5 fields, want 6"},
		{"non-integer site", sitesFile, setField(1, 0, "one"), false, `sites.csv row 1: strconv.ParseInt: parsing "one"`},
		{"non-integer round", dnsFile, setField(3, 2, "3.5"), false, `dns.csv row 3: strconv.Atoi: parsing "3.5"`},
		{"bad date", samplesFile, setField(1, 4, "2011-06-08 00:00:00"), false, `samples.csv row 1: parsing time "2011-06-08 00:00:00"`},
		{"bad float", samplesFile, setField(2, 7, "fast"), false, `samples.csv row 2: strconv.ParseFloat: parsing "fast"`},
		{"bad family", samplesFile, setField(1, 2, "2"), false, "samples.csv row 1: family 2"},
		{"bad path hop", pathsFile, setField(1, 4, "2;x;9"), false, `paths.csv row 1: strconv.Atoi: parsing "x"`},
		{"unterminated quote", sitesFile, setField(2, 1, `"abc`), false, `sites.csv row 2: extraneous or missing " in quoted-field`},
		{"truncated mid-row", dnsFile, truncateLastRow, true, "dns.csv row 50 has 3 fields"},
		{"truncated at row end", dnsFile, func(lines []string) []string { return lines }, true, "dns.csv row 50: truncated"},
		{"truncated header", pathsFile, func(lines []string) []string { return lines[:1] }, true, "paths.csv header: truncated"},
		{"empty file", pathsFile, func([]string) []string { return nil }, true, "paths.csv: empty file"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := binarySampleDB().Save(dir); err != nil {
				t.Fatal(err)
			}
			editCSV(t, dir, c.file, c.edit)
			if c.noFinalN {
				path := filepath.Join(dir, c.file)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db, err := Load(dir)
			if err == nil {
				t.Fatalf("loaded without error: %v", db)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestLoadRequiresSaveHeader(t *testing.T) {
	// Swapping two boolean columns keeps every row parseable, so before
	// the header check such a file loaded silently as wrong data.
	dir := t.TempDir()
	if err := binarySampleDB().Save(dir); err != nil {
		t.Fatal(err)
	}
	editCSV(t, dir, dnsFile, func(lines []string) []string {
		for i, l := range lines {
			f := strings.Split(l, ",")
			f[3], f[4] = f[4], f[3]
			lines[i] = strings.Join(f, ",")
		}
		return lines
	})
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "dns.csv header") || !strings.Contains(err.Error(), "has_aaaa,has_a") {
		t.Fatalf("reordered columns: %v", err)
	}
}

func TestDeriveReservation(t *testing.T) {
	seq := func(from, n int) []alexa.SiteID {
		out := make([]alexa.SiteID, n)
		for i := range out {
			out[i] = alexa.SiteID(from + i)
		}
		return out
	}
	cat := func(parts ...[]alexa.SiteID) []alexa.SiteID {
		var out []alexa.SiteID
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name string
		ids  []alexa.SiteID
		want reservation
	}{
		{"empty", nil, reservation{}},
		{"main only", seq(0, 100), reservation{main: 100}},
		{"main with gaps", cat(seq(0, 10), seq(15, 10)), reservation{main: 25}},
		{"main and extended", cat(seq(0, 100), seq(1<<40, 50)), reservation{main: 100, extBase: 1 << 40, ext: 50}},
		{"extended base rounds down", cat(seq(0, 100), seq(1<<20+3, 50)), reservation{main: 100, extBase: 1 << 20, ext: 53}},
		{"extended only", seq(1<<40, 64), reservation{extBase: 1 << 40, ext: 64}},
		{"sparse tail left in overflow", cat(seq(0, 100), seq(1<<40, 50), []alexa.SiteID{1 << 50}), reservation{main: 100, extBase: 1 << 40, ext: 50}},
		{"sparse", []alexa.SiteID{0, 5, 1 << 40, 1 << 50}, reservation{main: 1}},
		{"unsorted", []alexa.SiteID{0, 2, 1}, reservation{}},
		{"duplicate", []alexa.SiteID{0, 1, 1, 2}, reservation{}},
		{"negative ids stay in overflow", cat([]alexa.SiteID{-7}, seq(0, 10)), reservation{main: 10}},
	}
	for _, c := range cases {
		if got := deriveReservation(c.ids); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
		// The reservation never spans more than twice the ids present.
		if got := deriveReservation(c.ids); got.main+got.ext > 2*len(c.ids) {
			t.Errorf("%s: reservation %+v exceeds 2x the %d ids", c.name, got, len(c.ids))
		}
	}
}

func TestLoadSparseIDsUseOverflow(t *testing.T) {
	// Ids spread over 2^50 must load through the overflow maps — a dense
	// range over them would be petabytes — and still re-save identically.
	// The CSV twin of TestLoadBinarySparseSnapshotSkipsReserve.
	db := NewDB()
	ids := []alexa.SiteID{0, 5, 1 << 40, 1 << 50}
	for i, id := range ids {
		db.PutSite(SiteRow{Site: id, Host: alexa.HostName(id), FirstRank: i + 1, V4AS: 2, V6AS: -1})
		db.AddDNS("penn", DNSRow{Site: id, Round: 0, HasA: true})
		db.AddDNS("penn", DNSRow{Site: id, Round: 1, HasA: true, HasAAAA: i%2 == 0})
		db.AddSample("penn", id, topo.V4, Sample{Round: 1, PageBytes: 10, Downloads: 2, MeanSpeed: 1.5, CIOK: true})
	}
	want := saveCSVBytes(t, db)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := loaded.res; r.main+r.ext > 2*len(ids) {
		t.Fatalf("sparse ids reserved a large dense range: %+v", r)
	}
	got := saveCSVBytes(t, loaded)
	for name, data := range want {
		if !bytes.Equal(data, got[name]) {
			t.Errorf("%s differs after loading sparse ids", name)
		}
	}
}
