package engine

// Crash-safe campaign journal: the persistence layer that makes campaigns
// first-class durable objects. Each campaign owns one directory under the
// engine cache dir:
//
//	<cacheDir>/v1/campaigns/<id>/
//	    manifest.json   the campaign spec, written once via temp+rename
//	    records.log     append-only, one JSON line per terminal point,
//	                    fsync'd per append
//	    done            fsync'd completion marker (temp+rename), written
//	                    only when every point is terminal
//
// The journal never stores simulation results — those live in the
// content-addressed result store, which is shared across campaigns and
// already crash-safe (temp+rename per entry). A journal line records only
// that a point reached a terminal state (its key, its stream cursor, and
// the error text if it failed), so replay after `kill -9` re-admits the
// campaign with completed points marked done and their results one disk
// hit away: nothing completed is ever recomputed.
//
// Crash tolerance on the log itself: appends are fsync'd, so a record is
// durable before the next point can complete; a crash mid-append leaves at
// most one torn tail line, which replay detects (parse failure or
// non-monotonic sequence) and truncates away. The affected point simply
// re-runs on resume — and is served from the result store if its result
// write got further than its journal write.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"malec/internal/config"
	"malec/internal/faultinject"
)

// JournalFormatVersion stamps campaign manifests; entries written under
// another version are skipped on replay (never resumed into wrong
// semantics).
const JournalFormatVersion = 1

// journalManifest is the manifest.json payload: everything needed to
// reconstruct the campaign's deterministic job expansion after a restart.
type journalManifest struct {
	Version int         `json:"version"`
	ID      string      `json:"id"`
	Created time.Time   `json:"created"`
	Spec    journalSpec `json:"spec"`
}

// journalSpec is the serializable subset of CampaignSpec (Progress and
// Workers are runtime concerns, not campaign identity).
type journalSpec struct {
	Configs      []config.Config `json:"configs"`
	Benchmarks   []string        `json:"benchmarks"`
	Instructions int             `json:"instructions"`
	Seeds        []uint64        `json:"seeds"`
	Retries      int             `json:"retries"`
}

// StreamRecord is one terminal point of a campaign: a journal log line and
// a stream cursor. Seq is the record's monotonic cursor (1-based position
// in completion order); a results stream resumes from any cursor with
// `?after=<seq>`. Error is set when the point exhausted its retries.
type StreamRecord struct {
	Seq   uint64 `json:"seq"`
	Index int    `json:"index"`
	Key   Key    `json:"key"`
	Error string `json:"error,omitempty"`
}

// doneMarker is the fsync'd completion marker payload.
type doneMarker struct {
	State     CampaignState `json:"state"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed"`
	Finished  time.Time     `json:"finished"`
}

// journal is one campaign's open record log. Appends are serialized and
// fsync'd; all methods are best-effort from the campaign's point of view
// (a journal write failure degrades durability, never the campaign).
type journal struct {
	dir string
	f   *os.File
}

const (
	manifestName = "manifest.json"
	recordsName  = "records.log"
	doneName     = "done"
)

// createJournal initializes a campaign's journal directory: manifest
// published durably, record log opened for appending.
func createJournal(root string, man journalManifest) (*journal, error) {
	dir := filepath.Join(root, man.ID)
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := publish(filepath.Join(dir, manifestName), data, true); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, recordsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{dir: dir, f: f}, nil
}

// append journals one terminal point: marshal, write, fsync. The
// journal-write failpoint drops the append entirely (the point is
// re-admitted from the result store after a restart); the journal-torn
// failpoint writes a partial line, simulating a crash mid-append, which
// replay truncates away.
func (j *journal) append(rec StreamRecord) error {
	if j == nil || j.f == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if faultinject.JournalWrite.Fire() {
		return fmt.Errorf("engine: injected journal write fault")
	}
	if faultinject.JournalTorn.Fire() {
		data = data[:len(data)/2]
	}
	if _, err := j.f.Write(data); err != nil {
		return err
	}
	return j.f.Sync()
}

// finish publishes the fsync'd completion marker and closes the log. A
// campaign directory with a done marker is never re-admitted on restart.
func (j *journal) finish(mark doneMarker) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(mark)
	if err != nil {
		return err
	}
	if err := publish(filepath.Join(j.dir, doneName), data, true); err != nil {
		return err
	}
	return j.close()
}

// close releases the record log handle without marking completion.
func (j *journal) close() error {
	if j == nil || j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// replayedJournal is one campaign directory as read back at startup.
type replayedJournal struct {
	manifest journalManifest
	records  []StreamRecord
	done     *doneMarker // nil: unfinished, re-admit
	torn     int         // torn/corrupt tail bytes truncated away
}

// readJournal loads one campaign directory: manifest, the longest valid
// prefix of the record log (truncating a torn or corrupt tail in place so
// the journal can keep appending), and the completion marker if present.
func readJournal(dir string) (replayedJournal, error) {
	var rj replayedJournal
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return rj, err
	}
	if err := json.Unmarshal(data, &rj.manifest); err != nil {
		return rj, fmt.Errorf("engine: campaign manifest %s: %w", dir, err)
	}
	if rj.manifest.Version != JournalFormatVersion {
		return rj, fmt.Errorf("engine: campaign manifest %s: version %d, want %d",
			dir, rj.manifest.Version, JournalFormatVersion)
	}

	logPath := filepath.Join(dir, recordsName)
	raw, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return rj, err
	}
	good := 0 // byte offset of the end of the last valid record
	var lastSeq uint64
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // torn tail: no terminator
		}
		var rec StreamRecord
		if err := json.Unmarshal(raw[off:off+nl], &rec); err != nil || rec.Seq <= lastSeq {
			break // corrupt or out-of-order line: truncate from here
		}
		lastSeq = rec.Seq
		// Cursors are renumbered positionally: if an injected journal-write
		// fault dropped a line, the surviving records compact so cursors
		// stay dense and the affected point simply re-runs on resume.
		rec.Seq = uint64(len(rj.records)) + 1
		rj.records = append(rj.records, rec)
		off += nl + 1
		good = off
	}
	if good < len(raw) {
		rj.torn = len(raw) - good
		if err := os.Truncate(logPath, int64(good)); err != nil {
			return rj, err
		}
	}

	if data, err := os.ReadFile(filepath.Join(dir, doneName)); err == nil {
		var mark doneMarker
		if json.Unmarshal(data, &mark) == nil {
			rj.done = &mark
		}
	}
	return rj, nil
}

// reopenJournal opens an unfinished campaign's record log for further
// appends (resume after restart).
func reopenJournal(root, id string) (*journal, error) {
	dir := filepath.Join(root, id)
	f, err := os.OpenFile(filepath.Join(dir, recordsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{dir: dir, f: f}, nil
}

// pruneJournals removes completed campaign directories whose done marker
// is older than maxAge (0 keeps everything), bounding journal growth
// across restarts. Unfinished campaigns are never pruned — they are
// exactly the ones a restart must re-admit.
func pruneJournals(root string, maxAge time.Duration) int {
	if root == "" || maxAge <= 0 {
		return 0
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-maxAge)
	pruned := 0
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		markPath := filepath.Join(root, ent.Name(), doneName)
		info, err := os.Stat(markPath)
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.RemoveAll(filepath.Join(root, ent.Name())) == nil {
			pruned++
		}
	}
	return pruned
}
