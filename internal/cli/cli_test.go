package cli

import (
	"os"
	"path/filepath"
	"testing"

	"v6web/internal/store"
)

func smallDB(round int) *store.DB {
	db := store.NewDB()
	db.PutSite(store.SiteRow{Site: 1, Host: "a.example", FirstRank: 1, V4AS: 3, V6AS: -1})
	db.AddDNS("penn", store.DNSRow{Site: 1, Round: round, HasA: true})
	return db
}

// TestSaveCompletedFailureClearsOldMarker reruns a save over a
// directory holding a completed campaign and makes it fail after the
// main database was rewritten: the old completion Meta must not
// survive to vouch for the mix of new and old files.
func TestSaveCompletedFailureClearsOldMarker(t *testing.T) {
	dir := t.TempDir()
	if err := SaveCompleted(dir, 4, "old", smallDB(0), smallDB(0)); err != nil {
		t.Fatal(err)
	}
	final := &store.CSVBackend{Dir: dir}
	if m, ok, err := final.LoadMeta(); err != nil || !ok || !m.Complete {
		t.Fatalf("first save: meta %+v, ok %v, err %v; want a completed campaign", m, ok, err)
	}
	v6day := filepath.Join(dir, store.SnapV6Day)
	if err := os.RemoveAll(v6day); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v6day, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveCompleted(dir, 4, "new", smallDB(1), smallDB(1)); err == nil {
		t.Fatal("save over a file where the v6day directory belongs succeeded")
	}
	if m, ok, err := final.LoadMeta(); err != nil || (ok && m.Complete) {
		t.Fatalf("after the failed save: meta %+v, ok %v, err %v; want no completed campaign", m, ok, err)
	}
}
