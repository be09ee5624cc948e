package store

import "v6web/internal/alexa"

// DenseLayout reports db's reserved dense id ranges and how many
// entries sit in the overflow maps instead, for the external tests
// that pin which layout Load builds.
func DenseLayout(db *DB) (main int, extBase alexa.SiteID, ext, overflow int) {
	for i := range db.sites {
		overflow += len(db.sites[i].over)
	}
	for _, t := range db.tables() {
		for i := range t.dns {
			overflow += len(t.dns[i].over)
		}
		for i := range t.samples {
			overflow += len(t.samples[i].over[0]) + len(t.samples[i].over[1])
		}
	}
	return db.res.main, db.res.extBase, db.res.ext, overflow
}
