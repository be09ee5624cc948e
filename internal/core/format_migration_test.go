package core

// CSV-era checkpoint resume: checkpoints are only ever written as
// binary snapshots, but a checkpoint log left by a build that wrote
// CSV checkpoints must still resume — with byte-identical final CSVs,
// and with its next commit written binary.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"v6web/internal/store"
)

// latestCheckpointDir returns the newest committed checkpoint under a
// CheckpointBackend root.
func latestCheckpointDir(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "checkpoints", "ck-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no committed checkpoints under %s: %v", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// rewriteAsCSVEra turns the newest committed checkpoint under dir into
// what a build writing CSV checkpoints left behind: the main snapshot
// as a CSV directory instead of a .v6db file.
func rewriteAsCSVEra(t *testing.T, dir string) {
	t.Helper()
	bin := filepath.Join(latestCheckpointDir(t, dir), store.SnapMain+store.BinaryExt)
	db, err := store.LoadBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(strings.TrimSuffix(bin, store.BinaryExt)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(bin); err != nil {
		t.Fatal(err)
	}
}

// TestResumeAcrossFormatsByteIdentical kills a campaign mid-run,
// rewrites its newest checkpoint as a CSV-era one, resumes it, and
// requires final CSVs byte-identical to an uninterrupted run across
// three seeds. It also pins that the resumed run's next commit is
// binary (migration, not a CSV checkpoint writer kept alive).
func TestResumeAcrossFormatsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("format migration property test in -short mode")
	}
	for _, seed := range []int64{11, 12, 13} {
		seed := seed
		cfg := runnerCfg(seed)
		killAt := 2 + int(seed)%3

		ref, err := NewScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		if err := ref.RunWorldV6Day(); err != nil {
			t.Fatal(err)
		}
		refDir := t.TempDir()
		saveCampaign(t, ref, refDir)

		t.Run(fmt.Sprintf("seed=%d/csv-then-binary", seed), func(t *testing.T) {
			ckptDir := t.TempDir()
			first := store.NewCheckpointBackend(ckptDir)
			first.Fingerprint = cfg.Fingerprint()
			s1, err := NewScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err = s1.RunContext(ctx,
				WithBackend(first), WithCheckpoint(1),
				WithObserver(func(ev RoundEvent) {
					if ev.Round == killAt {
						cancel()
					}
				}))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}
			rewriteAsCSVEra(t, ckptDir)

			// Resume as a restarted process would: a fresh backend over
			// the same directory.
			second := store.NewCheckpointBackend(ckptDir)
			second.Fingerprint = cfg.Fingerprint()
			s2, err := Resume(cfg, second)
			if err != nil {
				t.Fatal(err)
			}
			if s2.RoundsDone() != killAt+1 {
				t.Fatalf("resumed at round %d, want %d", s2.RoundsDone(), killAt+1)
			}
			if err := s2.RunContext(context.Background(), WithBackend(second), WithCheckpoint(1)); err != nil {
				t.Fatal(err)
			}
			next := filepath.Join(latestCheckpointDir(t, ckptDir), store.SnapMain+store.BinaryExt)
			if _, err := os.Stat(next); err != nil {
				t.Fatalf("the commit after a CSV-era checkpoint is not binary: %v", err)
			}
			if err := s2.RunWorldV6Day(); err != nil {
				t.Fatal(err)
			}
			resDir := t.TempDir()
			saveCampaign(t, s2, resDir)
			assertCampaignsIdentical(t, refDir, resDir,
				fmt.Sprintf("seed %d CSV-era checkpoint at round %d", seed, killAt))
		})
	}
}
