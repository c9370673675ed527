package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
)

// ErrStoreClosed is returned by operations on a closed Store.
var ErrStoreClosed = errors.New("store: closed")

// Store is one durable data directory: the decoded state it recovered at
// Open (segments + WAL tail) and the live WAL every subsequent mutation
// appends to. The service layer replays the recovered state through its
// own mutation paths, then keeps logging; a background checkpointer folds
// the WAL into a fresh segment generation via Checkpoint.
//
// Concurrency: Append/Sync are safe for concurrent use (the WAL writer
// serializes internally); Checkpoint must not run concurrently with
// Append (the service guarantees that by holding its ingest lock across
// the checkpoint — mutations are quiescent, queries keep running).
type Store struct {
	dir string

	mu  sync.Mutex // serializes Checkpoint/Close against each other
	wal *walWriter
	seq uint64

	recovered []SegmentData
	tail      []Record

	segments       atomic.Int64
	checkpoints    atomic.Uint64
	lastCheckpoint atomic.Int64 // unix nanos; 0 = never in this process
	closed         atomic.Bool
}

// Open opens (creating if needed) the data directory, loads the manifest
// and every segment it names, and replays the WAL image up to the last
// intact record — a torn or bit-flipped tail is truncated away, never
// fatal. The returned store is ready for appends; the caller drains
// Recovered and WALTail first to rebuild in-memory state.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	sweepOrphans(dir, m)

	st := &Store{dir: dir, seq: m.Seq}
	for _, mr := range m.Relations {
		data, err := os.ReadFile(filepath.Join(dir, mr.Segment))
		if err != nil {
			return nil, fmt.Errorf("store: reading segment %s: %w", mr.Segment, err)
		}
		sd, err := DecodeSegment(data)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: %w", mr.Segment, err)
		}
		if sd.Name != mr.Name {
			return nil, fmt.Errorf("%w: segment %s holds relation %q, manifest says %q",
				ErrCorrupt, mr.Segment, sd.Name, mr.Name)
		}
		st.recovered = append(st.recovered, sd)
	}
	// Deterministic replay order: manifests are written sorted, but don't
	// trust a hand-edited one.
	sort.Slice(st.recovered, func(i, j int) bool { return st.recovered[i].Name < st.recovered[j].Name })
	st.segments.Store(int64(len(st.recovered)))

	walPath := filepath.Join(dir, m.WAL)
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	img, err := os.ReadFile(walPath)
	if err != nil {
		f.Close()
		return nil, err
	}
	recs, good := DecodeWAL(img)
	if good < int64(len(img)) {
		// Torn tail: drop the bytes past the last complete record so the
		// next append starts on a clean frame boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, err
	}
	st.tail = recs
	st.wal = newWALWriter(f, good, uint64(len(recs)))
	return st, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Recovered returns the segment snapshots loaded at Open, sorted by
// relation name.
func (s *Store) Recovered() []SegmentData { return s.recovered }

// WALTail returns the WAL records that follow the recovered segments, in
// commit order. Replaying them through the service's mutation paths (after
// registering the segments at their recorded versions) reproduces the
// pre-crash registry exactly.
func (s *Store) WALTail() []Record { return s.tail }

// Append logs one record (unsynced) and returns its sequence number for
// Sync. Records must be appended in commit order; the service guarantees
// that by appending while it still holds the lock that ordered the commit.
func (s *Store) Append(rec Record) (uint64, error) {
	if s.closed.Load() {
		return 0, ErrStoreClosed
	}
	return s.wal.append(EncodeRecord(rec))
}

// Sync fsyncs the WAL, covering record seq and every record appended
// before it; seq itself is not consulted, since every call is one fsync. A
// mutation is acknowledged only after its record's Sync returns — the
// fsync is the durability point of the service's commit.
func (s *Store) Sync(seq uint64) error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	return s.wal.sync()
}

// CheckpointRelation is one relation's snapshot input to Checkpoint. Cols
// may view the live columns: the caller promises no mutation runs until
// Checkpoint returns.
type CheckpointRelation struct {
	Name    string
	Version uint64
	Window  time.Duration
	Cols    dataset.Columns
}

// ResidentCombo names one resident join index ((pair, condition), version
// free) that recovery should rebuild eagerly so the server restarts warm.
type ResidentCombo struct {
	R1, R2, Cond string
}

// Checkpoint writes a fresh segment generation: one segment per relation,
// a new empty WAL, and the manifest that binds them, committed by the
// manifest rename. On return the old generation's files are deleted and
// the WAL counters reset — every record logged before the checkpoint is
// now redundant with the segments. The caller must hold mutations
// quiescent for the duration (see Store doc).
func (s *Store) Checkpoint(rels []CheckpointRelation, residents []ResidentCombo) error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrStoreClosed
	}
	newSeq := s.seq + 1

	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })
	m := manifest{Seq: newSeq, WAL: walFileName(newSeq)}
	for i, cr := range rels {
		segName := segmentFileName(newSeq, i)
		img := EncodeSegment(cr.Name, cr.Version, cr.Window, cr.Cols)
		if err := writeFileAtomic(s.dir, segName, img); err != nil {
			return fmt.Errorf("store: writing segment %s: %w", segName, err)
		}
		m.Relations = append(m.Relations, manifestRelation{
			Name: cr.Name, Segment: segName, Version: cr.Version,
			Rows: cr.Cols.Rows(), WindowNS: int64(cr.Window),
		})
	}
	sort.Slice(residents, func(i, j int) bool {
		a, b := residents[i], residents[j]
		if a.R1 != b.R1 {
			return a.R1 < b.R1
		}
		if a.R2 != b.R2 {
			return a.R2 < b.R2
		}
		return a.Cond < b.Cond
	})
	for _, rc := range residents {
		m.Residents = append(m.Residents, manifestResident{R1: rc.R1, R2: rc.R2, Cond: rc.Cond})
	}

	// New WAL first, then the manifest rename commits the generation: a
	// crash in between leaves the old manifest naming the old (complete)
	// WAL, and the orphan sweep reclaims the unreferenced new files.
	newWAL, err := os.OpenFile(filepath.Join(s.dir, m.WAL), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := newWAL.Sync(); err != nil {
		newWAL.Close()
		return err
	}
	if err := writeManifest(s.dir, m); err != nil {
		newWAL.Close()
		return err
	}

	old := s.wal.swap(newWAL)
	if old != nil {
		old.Close()
	}
	s.seq = newSeq
	s.segments.Store(int64(len(m.Relations)))
	s.checkpoints.Add(1)
	s.lastCheckpoint.Store(time.Now().UnixNano())
	sweepOrphans(s.dir, m)
	return nil
}

// ResidentCombos returns the combos recorded by the manifest at Open.
func (s *Store) ResidentCombos() []ResidentCombo {
	m, err := readManifest(s.dir)
	if err != nil {
		return nil
	}
	out := make([]ResidentCombo, 0, len(m.Residents))
	for _, r := range m.Residents {
		out = append(out, ResidentCombo{R1: r.R1, R2: r.R2, Cond: r.Cond})
	}
	return out
}

// Stats is the store's observable state for /v1/stats.
type Stats struct {
	// WALRecords and WALBytes measure the live WAL since the last
	// checkpoint — together they bound recovery's replay work.
	WALRecords uint64
	WALBytes   int64
	// WALSyncs counts the fsyncs Sync completed: one per successful call.
	WALSyncs uint64
	// Segments is the relation count of the current segment generation.
	Segments int
	// Checkpoints counts completed checkpoints in this process.
	Checkpoints uint64
	// LastCheckpoint is when the newest checkpoint completed; zero if none
	// has in this process's lifetime.
	LastCheckpoint time.Time
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	records, bytes, syncs := s.wal.stats()
	st := Stats{
		WALRecords:  records,
		WALBytes:    bytes,
		WALSyncs:    syncs,
		Segments:    int(s.segments.Load()),
		Checkpoints: s.checkpoints.Load(),
	}
	if ns := s.lastCheckpoint.Load(); ns != 0 {
		st.LastCheckpoint = time.Unix(0, ns)
	}
	return st
}

// WALBytes returns the live WAL size (the size-based checkpoint trigger
// reads it after every group commit).
func (s *Store) WALBytes() int64 {
	_, bytes, _ := s.wal.stats()
	return bytes
}

// Close syncs and closes the WAL. Further operations return ErrStoreClosed.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.close()
}
