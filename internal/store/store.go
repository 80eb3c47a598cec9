// Package store is the scheduler's durability layer: an append-only
// campaign journal (a JSON-lines write-ahead log under a state directory)
// that records every campaign state transition — admission, per-round
// repartition, chunk completion, requeue, terminal state — and replays them
// on startup so a restarted daemon re-admits every non-terminal campaign
// and keeps serving previously issued campaign IDs.
//
// The write path is strict WAL discipline: a record is fsynced before the
// transition it describes is acknowledged anywhere else (the admission
// verdict, a progress frame, the terminal result). The read path tolerates
// the one corruption a kill -9 can produce — a partial final line — by
// truncating the journal back to the last complete record and resuming
// appends from there. Anything the journal never saw (a chunk killed
// mid-write, an in-flight evaluation) is simply work still remaining, which
// the scheduler re-repartitions; chunk results are deterministic per
// (cluster, scenario count, months), so recovery cannot change what any
// chunk evaluates to.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
)

// Record kinds, in the order a campaign's life emits them.
const (
	// KindAdmitted opens a campaign: ID, shape, heuristic.
	KindAdmitted = "admitted"
	// KindPlanned starts one repartition round.
	KindPlanned = "planned"
	// KindChunk completes one dispatched chunk: the execution report plus
	// the scenario IDs it covered.
	KindChunk = "chunk"
	// KindRequeue returns a failed chunk's scenarios to the campaign.
	KindRequeue = "requeue"
	// KindDone closes a campaign with its terminal state.
	KindDone = "done"
	// KindCancelled closes a campaign as cancelled — a terminal record, so a
	// replay never re-admits the campaign: cancellation survives a kill -9.
	KindCancelled = "cancelled"
)

// Record is one journal line. Kind selects which fields are meaningful.
type Record struct {
	Kind string `json:"kind"`
	ID   uint64 `json:"id"`

	// Admitted. Priority, Labels and Deadline are the campaign's submit
	// options (control plane v2): journaling them with the admission keeps
	// re-admission after a restart priority-ordered and label-queryable.
	Scenarios int               `json:"scenarios,omitempty"`
	Months    int               `json:"months,omitempty"`
	Heuristic string            `json:"heuristic,omitempty"`
	Priority  int               `json:"priority,omitempty"`
	Labels    map[string]string `json:"labels,omitempty"`
	Deadline  time.Duration     `json:"deadline,omitempty"`
	// Key is the submission key the campaign was admitted under, zero for
	// a Local run's campaign and in journals written before keys: replay
	// rebuilds the scheduler's key index from it, so a submit resent across
	// a restart still finds its campaign. A zero key is left out of the
	// line.
	Key diet.SubmitKey `json:"key,omitzero"`

	// Planned.
	Round   int                 `json:"round,omitempty"`
	Planned []diet.PlannedChunk `json:"planned,omitempty"`

	// Chunk.
	Chunk *diet.ExecResponse `json:"chunk,omitempty"`
	IDs   []int              `json:"ids,omitempty"`

	// Requeue.
	Requeued int `json:"requeued,omitempty"`

	// Done.
	Status   string  `json:"status,omitempty"`
	Makespan float64 `json:"makespan,omitempty"`
	Requeues int     `json:"requeues,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// Campaign is one campaign's share of a journal: its ID and its records, in
// journal order, from the admission record on. The store groups records and
// never interprets them — what a record does to a campaign is the owner's
// one fold (grid's campaign.apply). It holds the records as the file does,
// encoded, so the copy that feeds rotation and compaction costs what the
// journal costs on disk.
type Campaign struct {
	ID uint64
	// lines holds the records' journal lines back to back, each with its
	// newline, byte for byte what the file holds.
	lines []byte
	// terminal is set once lines ends in a done or cancelled record.
	terminal bool
}

// Records decodes the campaign's journal lines, in replay order: the
// admission record first. Startup recovery folds them into a campaign; the
// failover path also re-appends them to the adopting shard's own journal, so
// an adopted campaign is exactly as durable there as it was on the shard
// that died.
func (c *Campaign) Records() []Record {
	var recs []Record
	for rest := c.lines; len(rest) > 0; {
		end := bytes.IndexByte(rest, '\n')
		var rec Record
		// Cannot fail: a line is filed only after it decoded (replay) or as
		// the encoding of a Record (Append).
		_ = json.Unmarshal(rest[:end], &rec)
		recs = append(recs, rec)
		rest = rest[end+1:]
	}
	return recs
}

// Terminal reports whether the campaign's records end in a terminal one. A
// cancelled campaign is terminal: replay must never re-admit it.
func (c *Campaign) Terminal() bool { return c.terminal }

// journal is a journal's records grouped by campaign, in first-admission
// order: what replay returns, and what an open Store keeps of its file.
type journal struct {
	byID  map[uint64]*Campaign
	order []uint64
}

// file puts one encoded record under its campaign; line is the caller's to
// give away. It holds the two rules that decide what stays in the file at
// the next rewrite: a record of a campaign with no admission record
// (compacted away) is dropped, and so is a straggler after the terminal
// record — a chunk journaled around a cancel claim, which the live campaign
// never surfaced. An admission record whose shape no campaign can have is
// ErrCorrupt: no crash writes one, and filing it would hand recovery a
// campaign it cannot build.
func (j *journal) file(rec *Record, line []byte) error {
	c := j.byID[rec.ID]
	switch {
	case rec.Kind == KindAdmitted:
		if err := (core.Application{Scenarios: rec.Scenarios, Months: rec.Months}).Validate(); err != nil {
			return fmt.Errorf("%w: campaign %d admitted with %v", ErrCorrupt, rec.ID, err)
		}
		if c == nil {
			j.order = append(j.order, rec.ID)
		}
		j.byID[rec.ID] = &Campaign{ID: rec.ID, lines: line}
	case c == nil || c.terminal:
	case rec.Kind == KindDone || rec.Kind == KindCancelled:
		// The last record a campaign gets: size the lines exactly, they stay
		// for as long as the campaign is retained.
		c.lines = append(make([]byte, 0, len(c.lines)+len(line)), c.lines...)
		c.lines = append(c.lines, line...)
		c.terminal = true
	default:
		c.lines = append(c.lines, line...)
	}
	return nil
}

// Store is an open campaign journal. Append is safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// off is the end offset of the last acknowledged record — the rollback
	// point when a write fails partway.
	off int64

	// mirror is the journal grouped per campaign (replayed at Open, extended
	// by every Append) — the checkpoint a rotation rewrites the live segment
	// from without re-reading the file.
	mirror journal
	// rotateAt arms online rotation: when the live segment's size crosses
	// the next threshold, Append checkpoints the retained campaigns into a
	// fresh segment.
	rotateAt int64
	// nextRotate is the size the journal must reach before the next rotation
	// attempt — re-armed after every rotation so a retained set bigger than
	// the threshold cannot trigger a rewrite per append.
	nextRotate int64
	// retain reports the campaign IDs worth keeping, the store's view of the
	// owner's retention policy. IDs it stops reporting are dropped at the
	// next rotation.
	retain func() []uint64
	// gen names the live segment's incarnation for pull-based replication:
	// seeded from the wall clock at Open so two incarnations of one daemon
	// never share a generation, bumped whenever rotation or compaction
	// rewrites the file. A puller whose generation no longer matches must
	// restart its replica from offset 0.
	gen uint64
}

// journalName is the WAL file inside the state directory.
const journalName = "campaigns.wal"

// ErrCorrupt is the typed verdict on a journal with a malformed record
// before its final line — corruption no crash can produce (a kill -9 tears
// at most the tail), so replay refuses the journal instead of silently
// dropping journaled state. A torn final line is not corruption: Open
// truncates it and resumes.
var ErrCorrupt = fmt.Errorf("store: corrupt journal")

// Open creates dir if needed, replays the journal found there (truncating a
// partial trailing record left by a crash mid-write), and returns the store
// positioned for appends plus every recovered campaign keyed by ID.
func Open(dir string) (*Store, map[uint64]*Campaign, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: state dir %s: %w", dir, err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening journal %s: %w", path, err)
	}
	// Two processes appending to one WAL interleave records into corruption
	// the next replay must reject; fail the second Open fast instead. The
	// advisory lock dies with the process, so a kill -9 leaves no stale
	// lock to clean up.
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: journal %s: %w", path, err)
	}
	mirror, good, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// A crash mid-append leaves a partial last line; cut the journal back to
	// the last complete record so new appends don't interleave with garbage.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncating journal %s to %d: %w", path, good, err)
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	// The caller gets its own Campaign values: the mirror's are written under
	// the store's lock by every Append. The copies share the bytes read so
	// far, capped so that an append to either side reallocates.
	campaigns := make(map[uint64]*Campaign, len(mirror.byID))
	for id, c := range mirror.byID {
		cp := *c
		cp.lines = cp.lines[:len(cp.lines):len(cp.lines)]
		campaigns[id] = &cp
	}
	return &Store{f: f, path: path, off: good, mirror: mirror, gen: uint64(time.Now().UnixNano())}, campaigns, nil
}

// Size returns the live journal segment's acknowledged byte length — the
// WAL-size gauge exported by the scheduler's /metrics endpoint. Rotation
// shrinks it.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.off
}

// Append journals one record: marshal, write, fsync. The record is durable
// when Append returns — callers acknowledge the transition only after. A
// failed write is rolled back by truncating to the last acknowledged
// offset: callers swallow mid-run journal errors by design, and without
// the rollback a torn record (ENOSPC persisting a prefix, say) would sit
// mid-file once later appends succeed, turning a transient hiccup into a
// journal the next replay must reject as corrupt.
func (s *Store) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshaling %s record: %w", rec.Kind, err)
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	rollback := func() {
		_ = s.f.Truncate(s.off)
		_, _ = s.f.Seek(s.off, 0)
	}
	if _, err := s.f.Write(data); err != nil {
		rollback()
		return fmt.Errorf("store: appending to %s: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		rollback()
		return fmt.Errorf("store: syncing %s: %w", s.path, err)
	}
	s.off += int64(len(data))
	// Cannot fail: every admission the owner journals passed the same
	// validation at submit.
	_ = s.mirror.file(&rec, data)
	if s.retain != nil && s.off >= s.nextRotate {
		// Best-effort: a failed rotation leaves the intact live segment and
		// re-arms, so a transient disk error costs a bigger journal, not the
		// record just acknowledged.
		_ = s.rotateLocked()
	}
	return nil
}

// AutoRotate arms online rotation: once the live segment grows past
// threshold bytes, the next Append checkpoints the journal — the records of
// the campaigns retain reports, in admission order — into a fresh segment
// and drops everything else. The owner's advisory lock travels with the
// live segment.
// retain runs with the store's internal lock held: it may take the owner's
// own locks only because the owner (grid's campaign lifecycle) never
// journals while holding them — and it must not call back into the store.
// IDs it returns that the journal does not know are ignored.
func (s *Store) AutoRotate(threshold int64, retain func() []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rotateAt = threshold
	s.nextRotate = threshold
	s.retain = retain
}

// Rotate checkpoints the journal immediately, regardless of size. The owner
// calls it once at startup with the campaigns it retained, which bounds
// journal growth across restarts (records of pruned campaigns do not
// accumulate forever) and keeps retention consistent: a campaign pruned past
// the cap stays unknown after a restart instead of being resurrected by
// replay. It requires AutoRotate to have armed a retain callback.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retain == nil {
		return fmt.Errorf("store: Rotate without a retain policy (call AutoRotate first)")
	}
	return s.rotateLocked()
}

// rotateLocked rewrites the live segment down to the retained campaigns'
// records. Callers hold s.mu. Whatever the outcome, the rotation threshold
// re-arms relative to the resulting segment size: a retained set that is
// itself bigger than the threshold must not rewrite the journal on every
// subsequent append.
func (s *Store) rotateLocked() error {
	keep := make(map[uint64]bool)
	for _, id := range s.retain() {
		keep[id] = true
	}
	err := s.rewriteLocked(keep)
	s.nextRotate = s.off + s.rotateAt
	return err
}

// rewriteLocked replaces the live segment with the lines of the campaigns
// in keep and of every non-terminal campaign, verbatim and in
// first-admission order, and prunes the mirror to match. A non-terminal
// campaign is never dropped, whatever the retain snapshot says: an admission
// record can be fsynced — and its verdict acknowledged — moments before the
// campaign enters the owner's table, and pruning it would un-admit a
// campaign whose ID a client already holds. Owners only ever retire
// terminal campaigns, so keeping every live one costs rotation nothing of
// its bound. The rewrite goes through a temp file and a rename, so a crash
// midway leaves either the old journal or the new one, never a mix. Callers
// hold s.mu.
func (s *Store) rewriteLocked(keep map[uint64]bool) error {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: rotating %s: %w", s.path, err)
	}
	abort := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: rotating %s: %w", s.path, err)
	}
	// The lock must travel with the inode that becomes the journal: we hold
	// the old segment's lock, so locking the replacement cannot contend.
	if err := lockFile(f); err != nil {
		return abort(err)
	}
	var off int64
	kept := journal{byID: make(map[uint64]*Campaign), order: make([]uint64, 0, len(s.mirror.order))}
	for _, id := range s.mirror.order {
		c := s.mirror.byID[id]
		if !keep[id] && c.terminal {
			continue
		}
		if _, err := f.Write(c.lines); err != nil {
			return abort(err)
		}
		off += int64(len(c.lines))
		kept.byID[id] = c
		kept.order = append(kept.order, id)
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return abort(err)
	}
	// Adopt the already-open replacement as the journal — no reopen by path,
	// which could fail and leave appends going to the unlinked old inode
	// while reporting success. Every failure path above leaves s.f on the
	// intact previous segment.
	s.f.Close()
	s.f = f
	s.off = off
	s.gen++
	s.mirror = kept
	return nil
}

// Close releases the journal file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// MaxID returns the highest campaign ID in the recovered set — the floor for
// a restarted scheduler's ID counter, so re-issued IDs never collide with
// IDs clients already hold.
func MaxID(campaigns map[uint64]*Campaign) uint64 {
	var max uint64
	for id := range campaigns {
		if id > max {
			max = id
		}
	}
	return max
}

// ByID returns the recovered campaigns sorted by ID, the deterministic
// re-admission order (a restarted queue serves campaigns in the order they
// were originally admitted).
func ByID(campaigns map[uint64]*Campaign) []*Campaign {
	out := make([]*Campaign, 0, len(campaigns))
	for _, c := range campaigns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// replay scans the journal and groups every complete record by campaign. It
// returns the byte offset just past the last complete record; anything after
// it is for the caller to truncate. Append writes each record and its
// newline in one Write, and a torn write keeps a prefix — so a line without
// its terminating '\n' is an unacknowledged append and is dropped, never
// counted into the good offset (counting it would make the caller's
// Truncate extend the file past EOF with NUL bytes). A record that fails to
// decode on a non-final line is real corruption and surfaces as an error
// rather than silently dropping journaled state.
func replay(f *os.File) (journal, int64, error) {
	j := journal{byID: make(map[uint64]*Campaign)}
	r := bufio.NewReader(f)
	var good int64
	var pendingErr error
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// line, if non-empty, is missing its newline: a torn append.
			break
		}
		if err != nil {
			return journal{}, 0, fmt.Errorf("store: reading journal: %w", err)
		}
		if pendingErr != nil {
			// A malformed record with complete records after it: the journal
			// is corrupt beyond crash-truncation repair.
			return journal{}, 0, pendingErr
		}
		var rec Record
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			pendingErr = fmt.Errorf("%w: record at offset %d: %v", ErrCorrupt, good, jerr)
			continue
		}
		if err := j.file(&rec, line); err != nil {
			return journal{}, 0, err
		}
		good += int64(len(line))
	}
	return j, good, nil
}

// ---- segment export (ring replication) ------------------------------------

// MaxSegmentChunk bounds one ReadSegment answer so a replication pull never
// ships more than a frame's worth of journal at a time; pullers loop until
// they drain the tail.
const MaxSegmentChunk = 1 << 20

// Segment is one ReadSegment answer: journal bytes from the requested
// offset, plus the coordinates the puller needs for its next request.
type Segment struct {
	// Generation is the live segment's incarnation.
	Generation uint64
	// Offset is the byte position the data ends at — the puller's next
	// request offset.
	Offset int64
	// Data holds acknowledged journal bytes (whole records; the acknowledged
	// offset never splits a record).
	Data []byte
	// Reset is true when the requested generation no longer matches: Data
	// then starts at offset 0 of the current generation and the puller must
	// replace its replica, not append to it.
	Reset bool
}

// Generation returns the live segment's incarnation.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// ReadSegment serves the replication pull: acknowledged journal bytes from
// offset off of generation gen, capped at MaxSegmentChunk. When gen does not
// match the live segment (the journal was rotated or compacted, or the
// daemon restarted), the answer resets to offset 0 of the current
// generation. Reads use ReadAt against the open journal, so concurrent
// appends are unaffected; only bytes at or below the acknowledged offset are
// served — a torn in-flight append is never shipped.
func (s *Store) ReadSegment(gen uint64, off int64) (Segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg := Segment{Generation: s.gen}
	if gen != s.gen || off < 0 || off > s.off {
		seg.Reset = true
		off = 0
	}
	n := s.off - off
	if n > MaxSegmentChunk {
		n = MaxSegmentChunk
		// Never split a record across pulls: back off to the last newline so
		// the replica on disk is always a valid (possibly torn-free) journal.
		buf := make([]byte, n)
		if _, err := s.f.ReadAt(buf, off); err != nil {
			return seg, fmt.Errorf("store: reading segment of %s: %w", s.path, err)
		}
		cut := int64(len(buf))
		for cut > 0 && buf[cut-1] != '\n' {
			cut--
		}
		if cut == 0 {
			cut = n // a single record larger than the cap ships whole later; give what we have
		}
		seg.Data = buf[:cut]
		seg.Offset = off + cut
		return seg, nil
	}
	if n > 0 {
		buf := make([]byte, n)
		if _, err := s.f.ReadAt(buf, off); err != nil {
			return seg, fmt.Errorf("store: reading segment of %s: %w", s.path, err)
		}
		seg.Data = buf
	}
	seg.Offset = off + n
	return seg, nil
}

// ReplayFile replays a journal file read-only — no lock, no truncation, no
// store — and returns the campaigns it holds. It is the failover path: a ring
// shard replays the replica it tailed from a dead peer to adopt that peer's
// campaigns. A torn final line is ignored exactly as Open would truncate it;
// mid-file corruption returns ErrCorrupt. A missing file is an empty
// journal, not an error.
func ReplayFile(path string) (map[uint64]*Campaign, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[uint64]*Campaign{}, nil
		}
		return nil, fmt.Errorf("store: opening replica %s: %w", path, err)
	}
	defer f.Close()
	j, _, err := replay(f)
	if err != nil {
		return nil, err
	}
	return j.byID, nil
}
