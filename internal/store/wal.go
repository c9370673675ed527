package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"repro/internal/dataset"
)

// RecordType discriminates WAL records. One record is one acknowledged
// service mutation, logged in commit order: replaying the sequence through
// the service's own mutation paths reproduces the registry — contents and
// version numbers — exactly as it evolved live.
type RecordType uint8

const (
	// RecRegister is a relation registration, carrying the full initial
	// contents (columnar payload) and the sliding window, so a relation
	// registered after the last checkpoint is recoverable from the WAL
	// alone.
	RecRegister RecordType = 1
	// RecInsert is one acknowledged insert group commit (a batch of
	// tuples appended to one relation).
	RecInsert RecordType = 2
	// RecDelete is one acknowledged delete group commit (a batch of row
	// ids, pre-delete numbering). Expiry marks sweeper-driven window
	// deletes so replay reproduces the service's expiry counters.
	RecDelete RecordType = 3
	// RecUnregister removes a relation from the registry.
	RecUnregister RecordType = 4
)

// Record is one decoded WAL record. Fields beyond Type and Relation are
// populated per type: Rel+Window for RecRegister, Tuples for RecInsert,
// IDs+Expiry for RecDelete.
type Record struct {
	Type     RecordType
	Relation string
	Rel      *dataset.Relation
	Window   time.Duration
	Tuples   []dataset.Tuple
	IDs      []int
	Expiry   bool
}

// encodeRelationPayload appends r's columnar snapshot: the flat attrs
// stride block, band column, int32 key columns, and the symbol-table
// footer — a near-direct dump of what dataset.Relation holds in memory.
func encodeRelationPayload(w *buf, c dataset.Columns) {
	w.uvarint(uint64(c.Local))
	w.uvarint(uint64(c.Agg))
	w.f64s(c.Attrs)
	w.f64s(c.Band)
	w.i32s(c.Keys)
	w.i32s(c.Keys2)
	w.strs(c.Symbols)
}

// decodeRelationPayload reads the columnar payload and rebuilds the
// relation through dataset.NewFromColumns, which re-validates every
// invariant — a corrupt payload fails decode, it does not build a broken
// relation.
func decodeRelationPayload(r *rbuf, name string) (*dataset.Relation, error) {
	c := dataset.Columns{Name: name}
	c.Local = int(r.uvarint())
	c.Agg = int(r.uvarint())
	c.Attrs = r.f64s()
	c.Band = r.f64s()
	c.Keys = r.i32s()
	c.Keys2 = r.i32s()
	c.Symbols = r.strs()
	if r.err != nil {
		return nil, r.err
	}
	rel, err := dataset.NewFromColumns(c)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rel, nil
}

// EncodeRecord renders one record as a WAL payload (without framing).
func EncodeRecord(rec Record) []byte {
	w := &buf{}
	w.u8(uint8(rec.Type))
	w.str(rec.Relation)
	switch rec.Type {
	case RecRegister:
		w.i64(int64(rec.Window))
		encodeRelationPayload(w, rec.Rel.SnapshotColumns())
	case RecInsert:
		d := 0
		if len(rec.Tuples) > 0 {
			d = len(rec.Tuples[0].Attrs)
		}
		w.uvarint(uint64(d))
		w.uvarint(uint64(len(rec.Tuples)))
		for i := range rec.Tuples {
			t := &rec.Tuples[i]
			w.str(t.Key)
			w.str(t.Key2)
			w.f64(t.Band)
			for _, v := range t.Attrs {
				w.f64(v)
			}
		}
	case RecDelete:
		if rec.Expiry {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.uvarint(uint64(len(rec.IDs)))
		for _, id := range rec.IDs {
			w.uvarint(uint64(id))
		}
	case RecUnregister:
		// Name only.
	}
	return w.b
}

// DecodeRecord parses one WAL payload. It never panics: any malformed
// input returns an error wrapping ErrCorrupt.
func DecodeRecord(payload []byte) (Record, error) {
	r := &rbuf{b: payload}
	rec := Record{Type: RecordType(r.u8()), Relation: r.str()}
	switch rec.Type {
	case RecRegister:
		rec.Window = time.Duration(r.i64())
		if r.err != nil {
			return rec, r.err
		}
		if rec.Window < 0 {
			return rec, fmt.Errorf("%w: negative window %d", ErrCorrupt, rec.Window)
		}
		rel, err := decodeRelationPayload(r, rec.Relation)
		if err != nil {
			return rec, err
		}
		rec.Rel = rel
	case RecInsert:
		d := int(r.uvarint())
		if r.err == nil && (d < 0 || d > r.remaining()/8+1) {
			return rec, fmt.Errorf("%w: impossible attribute width %d", ErrCorrupt, d)
		}
		n := r.length(1 + 1 + 8) // minimum bytes per tuple: two empty strings + band
		rec.Tuples = make([]dataset.Tuple, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			t := dataset.Tuple{Key: r.str(), Key2: r.str(), Band: r.f64()}
			if r.err == nil && d > r.remaining()/8 {
				r.fail("tuple attrs")
				break
			}
			t.Attrs = make([]float64, d)
			for j := 0; j < d; j++ {
				t.Attrs[j] = r.f64()
			}
			rec.Tuples = append(rec.Tuples, t)
		}
	case RecDelete:
		rec.Expiry = r.u8() != 0
		n := r.length(1)
		rec.IDs = make([]int, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			id := r.uvarint()
			if id > uint64(int(^uint(0)>>1)) {
				r.fail("delete id")
				break
			}
			rec.IDs = append(rec.IDs, int(id))
		}
	case RecUnregister:
		// Name only.
	default:
		return rec, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.Type)
	}
	if r.err != nil {
		return rec, r.err
	}
	if r.remaining() != 0 {
		return rec, fmt.Errorf("%w: %d trailing bytes after record", ErrCorrupt, r.remaining())
	}
	return rec, nil
}

// WAL framing: every record is [4B payload length][4B CRC-32C of the
// payload][payload]. The frame makes torn tails detectable — a crash
// mid-write leaves a short or checksum-failing suffix, and recovery stops
// at the last record whose frame verifies.
const frameHeader = 8

// maxRecordBytes rejects absurd frame lengths before allocating: no
// legitimate record approaches it (the largest is a full-relation
// RecRegister), and a bit-flipped length prefix must not drive an
// out-of-memory allocation during recovery.
const maxRecordBytes = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FrameRecord wraps an encoded payload in the WAL frame.
func FrameRecord(payload []byte) []byte {
	w := &buf{b: make([]byte, 0, frameHeader+len(payload))}
	w.u32(uint32(len(payload)))
	w.u32(crc32.Checksum(payload, crcTable))
	w.b = append(w.b, payload...)
	return w.b
}

// DecodeWAL parses a WAL image into records, tolerating a torn or corrupt
// tail: decoding stops at the first frame that is short, oversized, fails
// its checksum, or fails payload decode, and good returns the byte length
// of the intact prefix. It never panics, whatever the input.
func DecodeWAL(data []byte) (recs []Record, good int64) {
	off := 0
	for {
		if len(data)-off < frameHeader {
			return recs, int64(off)
		}
		r := &rbuf{b: data[off:]}
		n := int(r.u32())
		sum := r.u32()
		if n < 0 || n > maxRecordBytes || n > len(data)-off-frameHeader {
			return recs, int64(off)
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, int64(off)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return recs, int64(off)
		}
		recs = append(recs, rec)
		off += frameHeader + n
	}
}

// walWriter appends framed records to the live WAL file. Appends are
// ordered by an internal mutex (callers append in commit order while
// holding the service's locks); every sync is one fsync of everything
// appended so far.
type walWriter struct {
	mu        sync.Mutex
	f         *os.File
	bytes     int64
	records   uint64
	syncCount uint64
}

func newWALWriter(f *os.File, bytes int64, records uint64) *walWriter {
	return &walWriter{f: f, bytes: bytes, records: records}
}

// append writes one framed record and returns its sequence number: its
// position in the live WAL, counting from 1.
func (w *walWriter) append(payload []byte) (uint64, error) {
	framed := FrameRecord(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, ErrStoreClosed
	}
	if _, err := w.f.Write(framed); err != nil {
		return 0, err
	}
	w.records++
	w.bytes += int64(len(framed))
	return w.records, nil
}

// sync fsyncs every record appended so far.
func (w *walWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrStoreClosed
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncCount++
	return nil
}

// swap atomically replaces the live WAL file (checkpoint rotation),
// returning the old file for the caller to close and delete.
func (w *walWriter) swap(f *os.File) *os.File {
	w.mu.Lock()
	defer w.mu.Unlock()
	old := w.f
	w.f = f
	w.bytes = 0
	w.records = 0
	return old
}

func (w *walWriter) stats() (records uint64, bytes int64, syncs uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes, w.syncCount
}

func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	w.f.Sync()
	err := w.f.Close()
	w.f = nil
	return err
}
