package store

import (
	"bytes"
	"encoding/csv"
	"io"
	"reflect"
	"strings"
	"testing"
)

// readAllFast drains csvReader over data: the records as strings, and
// whether reading ended in an error other than io.EOF.
func readAllFast(data []byte) ([][]string, bool) {
	r := newCSVReader(bytes.NewReader(data))
	var out [][]string
	for {
		rec, err := r.next()
		if err != nil {
			return out, err != io.EOF
		}
		row := make([]string, rec.len())
		for i := range row {
			row[i] = string(rec.field(i))
		}
		out = append(out, row)
	}
}

// readAllStd is readAllFast through encoding/csv with the settings
// csvReader promises to match.
func readAllStd(data []byte) ([][]string, bool) {
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = -1
	var out [][]string
	for {
		rec, err := r.Read()
		if err != nil {
			return out, err != io.EOF
		}
		out = append(out, rec)
	}
}

// FuzzCSVReader is the differential check behind csvReader: on any
// input it must yield encoding/csv's records, and fail where (and only
// where) encoding/csv fails.
func FuzzCSVReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := readAllFast(data)
		want, wantErr := readAllStd(data)
		if !reflect.DeepEqual(got, want) || gotErr != wantErr {
			t.Fatalf("input %q:\ncsvReader    %q (error %v)\nencoding/csv %q (error %v)", data, got, gotErr, want, wantErr)
		}
	})
}

// TestCSVReaderLongLines covers lines longer than the reader's buffer,
// plain and quoted, which the fuzzer's small inputs never reach.
func TestCSVReaderLongLines(t *testing.T) {
	long := strings.Repeat("x", 200_000)
	for _, data := range []string{
		"a," + long + ",b\nc\n",
		"a," + long,
		"a\n\"" + long + "\n" + long + "\",b\nc,d\n",
		long + "\"\n",
	} {
		got, gotErr := readAllFast([]byte(data))
		want, wantErr := readAllStd([]byte(data))
		if !reflect.DeepEqual(got, want) || gotErr != wantErr {
			t.Errorf("%d-byte input: csvReader and encoding/csv disagree (errors %v, %v)", len(data), gotErr, wantErr)
		}
	}
}

// FuzzCSVWriter is the differential check behind appendField: a record
// of up to six fields (the input split at NUL bytes), joined with
// commas and ended with a newline, must be the bytes encoding/csv's
// Writer writes for it.
func FuzzCSVWriter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := strings.SplitN(string(data), "\x00", 6)
		var got []byte
		for i, field := range rec {
			if i > 0 {
				got = append(got, ',')
			}
			got = appendField(got, field)
		}
		got = append(got, '\n')
		var want bytes.Buffer
		w := csv.NewWriter(&want)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("record %q:\nappendField  %q\nencoding/csv %q", rec, got, want.Bytes())
		}
	})
}
