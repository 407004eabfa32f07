package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"malec/internal/config"
)

// testManifest returns a minimal valid manifest for journal tests.
func testManifest(id string) journalManifest {
	cfg, _ := config.Named("MALEC")
	return journalManifest{
		Version: JournalFormatVersion,
		ID:      id,
		Created: time.Unix(1700000000, 0).UTC(),
		Spec: journalSpec{
			Configs:      []config.Config{cfg},
			Benchmarks:   []string{"gzip"},
			Instructions: 1000,
			Seeds:        []uint64{1},
		},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	root := t.TempDir()
	j, err := createJournal(root, testManifest("cafe0001"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		rec := StreamRecord{Seq: uint64(i), Index: i - 1}
		if i == 2 {
			rec.Error = "boom"
		}
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.finish(doneMarker{State: CampaignDone, Completed: 2, Failed: 1}); err != nil {
		t.Fatal(err)
	}

	rj, err := readJournal(filepath.Join(root, "cafe0001"))
	if err != nil {
		t.Fatal(err)
	}
	if rj.manifest.ID != "cafe0001" || rj.manifest.Spec.Benchmarks[0] != "gzip" {
		t.Fatalf("manifest round trip: %+v", rj.manifest)
	}
	if len(rj.records) != 3 || rj.torn != 0 {
		t.Fatalf("got %d records, torn=%d, want 3 records intact", len(rj.records), rj.torn)
	}
	if rj.records[1].Error != "boom" {
		t.Fatalf("record error lost: %+v", rj.records[1])
	}
	if rj.done == nil || rj.done.State != CampaignDone || rj.done.Completed != 2 || rj.done.Failed != 1 {
		t.Fatalf("done marker round trip: %+v", rj.done)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	root := t.TempDir()
	j, err := createJournal(root, testManifest("cafe0002"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := j.append(StreamRecord{Seq: uint64(i), Index: i - 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-append: a partial line with no terminator.
	if _, err := j.f.WriteString(`{"seq":3,"ind`); err != nil {
		t.Fatal(err)
	}
	j.close()

	dir := filepath.Join(root, "cafe0002")
	rj, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rj.records) != 2 {
		t.Fatalf("got %d records, want the 2 intact ones", len(rj.records))
	}
	if rj.torn == 0 {
		t.Fatal("torn tail not reported")
	}
	if rj.done != nil {
		t.Fatal("unfinished journal reported a done marker")
	}
	// The tail was truncated in place, so reopening and appending yields a
	// clean log.
	j2, err := reopenJournal(root, "cafe0002", rj.lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.append(StreamRecord{Seq: 3, Index: 2}); err != nil {
		t.Fatal(err)
	}
	j2.close()
	rj2, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rj2.records) != 3 || rj2.torn != 0 {
		t.Fatalf("after truncate+append: %d records, torn=%d, want 3 intact", len(rj2.records), rj2.torn)
	}
}

func TestJournalCursorCompaction(t *testing.T) {
	// A log written before appends numbered their lines has a seq gap
	// where an append was dropped; replay renumbers positionally so
	// cursors stay dense and monotonic.
	root := t.TempDir()
	j, err := createJournal(root, testManifest("cafe0003"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 2, 4, 7} {
		data, err := json.Marshal(StreamRecord{Seq: seq, Index: int(seq)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.f.Write(append(data, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	rj, err := readJournal(filepath.Join(root, "cafe0003"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rj.records) != 4 {
		t.Fatalf("got %d records, want 4", len(rj.records))
	}
	for i, rec := range rj.records {
		if rec.Seq != uint64(i)+1 {
			t.Fatalf("record %d replayed with seq %d, want dense renumbering", i, rec.Seq)
		}
	}
}

func TestPruneJournals(t *testing.T) {
	root := t.TempDir()
	mkCampaign := func(id string, done bool, age time.Duration) {
		j, err := createJournal(root, testManifest(id))
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if err := j.finish(doneMarker{State: CampaignDone}); err != nil {
				t.Fatal(err)
			}
			if age > 0 {
				old := time.Now().Add(-age)
				mark := filepath.Join(root, id, doneName)
				if err := os.Chtimes(mark, old, old); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			j.close()
		}
	}
	mkCampaign("aaaa0000", true, 48*time.Hour) // expired: pruned
	mkCampaign("bbbb0000", true, 0)            // fresh: kept
	mkCampaign("cccc0000", false, 0)           // unfinished: never pruned

	if n := pruneJournals(root, 24*time.Hour); n != 1 {
		t.Fatalf("pruned %d journals, want 1", n)
	}
	for id, want := range map[string]bool{"aaaa0000": false, "bbbb0000": true, "cccc0000": true} {
		_, err := os.Stat(filepath.Join(root, id))
		if exists := err == nil; exists != want {
			t.Errorf("campaign %s exists=%v, want %v", id, exists, want)
		}
	}
	if n := pruneJournals(root, 0); n != 0 {
		t.Fatalf("retention 0 pruned %d journals, want none", n)
	}
}

func BenchmarkJournalReplay(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			root := b.TempDir()
			j, err := createJournal(root, testManifest("bench000"))
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i <= size; i++ {
				if err := j.append(StreamRecord{Seq: uint64(i), Index: i - 1}); err != nil {
					b.Fatal(err)
				}
			}
			j.close()
			dir := filepath.Join(root, "bench000")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rj, err := readJournal(dir)
				if err != nil {
					b.Fatal(err)
				}
				if len(rj.records) != size {
					b.Fatalf("replayed %d records, want %d", len(rj.records), size)
				}
			}
		})
	}
}

// FuzzJournalReplay replays an arbitrary records.log beside a fixed valid
// manifest. readJournal must not panic; the records it returns must carry
// the dense cursors 1..n; the log must be truncated in place to its valid
// prefix, len(input) - torn bytes; a second replay must return the same
// records with nothing torn; and one append through a reopened journal
// must replay as record n+1.
func FuzzJournalReplay(f *testing.F) {
	man, err := json.Marshal(testManifest("fuzz0000"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, log []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "fuzz0000")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o644); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, recordsName)
		if err := os.WriteFile(logPath, log, 0o644); err != nil {
			t.Fatal(err)
		}

		rj, err := readJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range rj.records {
			if rec.Seq != uint64(i)+1 {
				t.Fatalf("record %d replayed with cursor %d, want %d", i, rec.Seq, i+1)
			}
		}
		left, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if rj.torn < 0 || rj.torn > len(log) || !bytes.Equal(left, log[:len(log)-rj.torn]) {
			t.Fatalf("log left at %d bytes with torn = %d, want the first len(input) - torn = %d bytes of %d",
				len(left), rj.torn, len(log)-rj.torn, len(log))
		}

		again, err := readJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if again.torn != 0 || !slices.Equal(again.records, rj.records) {
			t.Fatalf("second replay: %d records, torn = %d; want the first replay's %d, torn = 0",
				len(again.records), again.torn, len(rj.records))
		}

		n := uint64(len(rj.records))
		jr, err := reopenJournal(root, "fuzz0000", rj.lastSeq)
		if err != nil {
			t.Fatal(err)
		}
		next := StreamRecord{Seq: n + 1, Index: int(n), Key: Key{ConfigDigest: "next", Benchmark: "gzip", Instructions: 1000, Seed: 1}}
		if err := jr.append(next); err != nil {
			t.Fatal(err)
		}
		jr.close()
		after, err := readJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if after.torn != 0 || len(after.records) != int(n)+1 || after.records[n] != next {
			t.Fatalf("after one append: %d records, torn = %d; want %d ending in %+v", len(after.records), after.torn, n+1, next)
		}
	})
}
