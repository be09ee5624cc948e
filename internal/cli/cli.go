// Package cli holds the few helpers the cmd tools share, so flag
// conventions cannot drift between them: detection of explicitly set
// flags (behind every tool's "-scenario replaces the shape flags"
// conflict errors) and uniform fatal exits.
package cli

import (
	"flag"
	"fmt"
	"os"
	"time"

	"v6web/internal/store"
)

// ExplicitFlags returns which of the named flags the user set on the
// command line (as opposed to leaving at their defaults).
func ExplicitFlags(names ...string) []string {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var out []string
	for _, n := range names {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

// Fatal prints "tool: err" to stderr and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintln(os.Stderr, tool+":", err)
	os.Exit(1)
}

// SaveCompleted writes a finished campaign's product to dir: both
// database snapshots plus the completion Meta (NextRound == Rounds,
// Complete set) that marks the directory as final rather than a
// resumable checkpoint. Every tool that finishes a campaign goes
// through here so the completion contract cannot drift between them.
//
// The databases are rewritten in place, so a completion Meta left by
// an earlier campaign in dir is removed before the first file changes:
// a save that stops midway then leaves a directory with no completed
// campaign, never an old marker over a mix of new and old files.
func SaveCompleted(dir string, rounds int, fingerprint string, main, v6day *store.DB) error {
	final := &store.CSVBackend{Dir: dir}
	if err := final.ClearMeta(); err != nil {
		return err
	}
	if err := final.SaveSnapshot(store.SnapMain, main); err != nil {
		return err
	}
	if err := final.SaveSnapshot(store.SnapV6Day, v6day); err != nil {
		return err
	}
	return final.SaveMeta(store.Meta{
		NextRound:  rounds,
		Rounds:     rounds,
		ConfigHash: fingerprint,
		Complete:   true,
		SavedAt:    time.Now().UTC(),
	})
}
