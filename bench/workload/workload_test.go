package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// schedule renders a workload's datasets and first rounds as bytes.
func schedule(t *testing.T, name string, seed int64, rounds int) []byte {
	t.Helper()
	g, err := New(name, seed, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(g.Datasets); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if err := enc.Encode(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameSchedule(t *testing.T) {
	for _, name := range Names {
		a, b := schedule(t, name, 7, 4), schedule(t, name, 7, 4)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different schedules", name)
		}
		if c := schedule(t, name, 8, 4); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same schedule", name)
		}
	}
}

// TestDeleteIDsAlwaysValid replays every schedule against the mirror: each
// delete must name strictly ascending rows that exist when it arrives, and
// every relation must end a round with the row count it started with.
func TestDeleteIDsAlwaysValid(t *testing.T) {
	for _, name := range Names {
		g, err := New(name, 3, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMirror(g.Datasets)
		start := make(map[string]int)
		for _, d := range g.Datasets {
			start[d.Name] = len(d.Tuples)
		}
		for r := 0; r < 5; r++ {
			round := g.Next()
			// Clients own disjoint relations, so replaying them one after
			// the other sees each relation's true history.
			for _, ops := range round.Clients {
				for _, op := range ops {
					if op.Kind == Query {
						continue
					}
					n := len(m.Current(op.Relation))
					for i, id := range op.IDs {
						if id < 0 || id >= n || (i > 0 && id <= op.IDs[i-1]) {
							t.Fatalf("%s round %d: delete ids %v invalid against %d rows", name, r, op.IDs, n)
						}
					}
					m.Issue(op)
					m.Ack(op.Relation)
				}
			}
			for rel, n := range start {
				if got := len(m.Current(rel)); got != n {
					t.Errorf("%s round %d: %s has %d rows, want stationary %d", name, r, rel, got, n)
				}
			}
		}
	}
}

// TestChurnKeepsThePopulation pins what makes a query's cost the same in
// every round and for every seed: mutations only move tuples between a
// relation and its parked set, so the two together never change.
func TestChurnKeepsThePopulation(t *testing.T) {
	count := func(into map[string]int, ts []dataset.Tuple, by int) {
		for _, tu := range ts {
			into[fmt.Sprint(tu.Key, tu.Attrs)] += by
		}
	}
	for _, name := range Names {
		g, err := New(name, 5, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMirror(g.Datasets)
		diff := make(map[string]map[string]int)
		for _, d := range g.Datasets {
			diff[d.Name] = make(map[string]int)
			count(diff[d.Name], d.Tuples, 1)
			count(diff[d.Name], g.parked[d.Name], 1)
		}
		for r := 0; r < 6; r++ {
			for _, ops := range g.Next().Clients {
				for _, op := range ops {
					if op.Kind != Query {
						m.Issue(op)
					}
				}
			}
		}
		for rel, d := range diff {
			count(d, m.Current(rel), -1)
			count(d, g.parked[rel], -1)
			for tu, n := range d {
				if n != 0 {
					t.Fatalf("%s: after 6 rounds %s and its parked set hold %+d of %s", name, rel, -n, tu)
				}
			}
		}
	}
}

func TestMirrorVersionsAndRebase(t *testing.T) {
	g, err := New("adhoc", 1, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMirror(g.Datasets)
	var muts []Op
	for _, op := range g.Next().Clients[0] {
		if op.Kind != Query {
			muts = append(muts, op)
		}
	}
	if len(muts) != 2 {
		t.Fatalf("adhoc round has %d mutations, want 2", len(muts))
	}
	rel := muts[0].Relation
	if v := m.Issue(muts[0]); v != 2 {
		t.Fatalf("first mutation issues version %d, want 2", v)
	}
	acked, issued := m.Versions(rel, rel)
	if acked[0] != 1 || issued[0] != 2 {
		t.Fatalf("versions acked %d issued %d, want 1 and 2", acked[0], issued[0])
	}
	m.Ack(rel)
	m.Issue(muts[1])
	m.Ack(rel)

	// Going back to an older version restarts the cursor.
	v3, _ := m.Rows(rel, 3)
	n3 := len(v3)
	v2, _ := m.Rows(rel, 2)
	if len(v2) != n3+4 {
		t.Fatalf("version 2 has %d rows, want %d (version 3 plus the 4 deleted)", len(v2), n3+4)
	}
	if _, err := m.Rows(rel, 4); err == nil {
		t.Fatal("version 4 was never issued but materialised")
	}

	m.Rebase(rel)
	if _, issued := m.Versions(rel, rel); issued[0] != 1 {
		t.Fatalf("after rebase the issued version is %d, want 1", issued[0])
	}
	if rows, _ := m.Rows(rel, 1); len(rows) != n3 {
		t.Fatalf("after rebase version 1 has %d rows, want %d", len(rows), n3)
	}
}
