package workload

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
)

// Mirror is the load generator's own copy of every relation: the initial
// tuples plus the ordered log of mutations it has sent. It is what the
// oracle recomputes expected answers from, and it can materialise any
// relation at any version the server may have answered at.
//
// A mutation is logged when it is issued (under the caller's ordering, one
// writer per relation) and acknowledged when the server confirms it, so a
// concurrent reader's versions are bracketed: at least the acknowledged
// count when its request left, at most the issued count when its reply
// arrived.
type Mirror struct {
	mu   sync.Mutex
	rels map[string]*relMirror
}

type relMirror struct {
	initial []dataset.Tuple
	log     []Op
	acked   int
	// base is the log length at the last re-registration: an in-memory
	// server that is restarted and re-loaded starts again at version 1.
	base int
	// cursor caches the rows at log position curAt, so materialising
	// versions in ascending order costs one forward pass overall.
	cursor []dataset.Tuple
	curAt  int
}

// NewMirror starts a mirror holding the generated datasets at version 1.
func NewMirror(ds []Dataset) *Mirror {
	m := &Mirror{rels: make(map[string]*relMirror)}
	for _, d := range ds {
		m.rels[d.Name] = &relMirror{initial: d.Tuples, curAt: -1}
	}
	return m
}

func (m *Mirror) rel(name string) *relMirror {
	r, ok := m.rels[name]
	if !ok {
		panic(fmt.Sprintf("workload: mirror has no relation %q", name))
	}
	return r
}

// Issue logs a mutation about to be sent and returns the version the
// relation must report once the server has applied it.
func (m *Mirror) Issue(op Op) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.rel(op.Relation)
	r.log = append(r.log, op)
	return uint64(1 + len(r.log) - r.base)
}

// Ack records that the oldest unacknowledged mutation of rel was confirmed.
func (m *Mirror) Ack(rel string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rel(rel).acked++
}

// Versions returns the acknowledged and the issued version of each relation.
func (m *Mirror) Versions(r1, r2 string) (acked, issued [2]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, name := range [2]string{r1, r2} {
		r := m.rel(name)
		acked[i] = uint64(1 + r.acked - r.base)
		issued[i] = uint64(1 + len(r.log) - r.base)
	}
	return acked, issued
}

// Rebase records that rel was registered afresh with its current rows, so
// the server counts versions from 1 again.
func (m *Mirror) Rebase(rel string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.rel(rel)
	r.base = len(r.log)
	r.acked = len(r.log)
}

// Rows materialises rel at the given version (as the server numbers it
// since the last Rebase). The slice is the mirror's own: read-only, and
// valid until the next Rows call for the same relation.
func (m *Mirror) Rows(rel string, version uint64) ([]dataset.Tuple, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.rel(rel)
	at := int(version) - 1 + r.base
	if version < 1 || at > len(r.log) {
		return nil, fmt.Errorf("workload: %s has no version %d (issued through %d)", rel, version, 1+len(r.log)-r.base)
	}
	if r.curAt < 0 || at < r.curAt {
		r.cursor = append(r.cursor[:0], r.initial...)
		r.curAt = 0
	}
	for ; r.curAt < at; r.curAt++ {
		r.cursor = apply(r.cursor, r.log[r.curAt])
	}
	return r.cursor, nil
}

// Current materialises rel with every issued mutation applied.
func (m *Mirror) Current(rel string) []dataset.Tuple {
	_, issued := m.Versions(rel, rel)
	rows, err := m.Rows(rel, issued[0])
	if err != nil {
		panic(err) // the issued version always exists
	}
	return rows
}

// apply performs one logged mutation the way dataset.Relation does: inserts
// append, deletes compact and keep the survivors' relative order.
func apply(rows []dataset.Tuple, op Op) []dataset.Tuple {
	if op.Kind == Insert {
		return append(rows, op.Tuples...)
	}
	w, next := 0, 0
	for i, t := range rows {
		if next < len(op.IDs) && op.IDs[next] == i {
			next++
			continue
		}
		rows[w] = t
		w++
	}
	return rows[:w]
}

// UserBytes is the exact size of rows as user data: each tuple's key plus
// eight bytes per attribute. Disk amplification is measured against it.
func UserBytes(rows []dataset.Tuple) int64 {
	var n int64
	for _, t := range rows {
		n += int64(len(t.Key)) + 8*int64(len(t.Attrs))
	}
	return n
}
