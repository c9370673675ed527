package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/join"
)

func synthetic(n, local, groups int, dist datagen.Distribution, seed int64) *dataset.Relation {
	return datagen.MustGenerate(datagen.Config{
		Name: fmt.Sprintf("r%d", seed), N: n, Local: local, Groups: groups, Dist: dist, Seed: seed,
	})
}

func TestMembershipMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 20; trial++ {
		r1 := synthetic(10+rng.Intn(20), 3, 2, datagen.Independent, int64(trial*2+1))
		r2 := synthetic(10+rng.Intn(20), 3, 2, datagen.Independent, int64(trial*2+2))
		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
		res, err := Run(q, Grouping)
		if err != nil {
			t.Fatal(err)
		}
		inSky := map[[2]int]bool{}
		for _, p := range res.Skyline {
			inSky[[2]int{p.Left, p.Right}] = true
		}
		var pairs [][2]int
		g2 := r2.GroupIndex()
		for i := 0; i < r1.Len(); i++ {
			for _, j := range g2[r1.Key(i)] {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		members, err := MembershipContext(context.Background(), q, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for n, pr := range pairs {
			if members[n] != inSky[pr] {
				t.Fatalf("trial %d: membership of %v = %v, Run says %v", trial, pr, members[n], inSky[pr])
			}
		}
	}
}

func TestMembershipErrors(t *testing.T) {
	r1 := synthetic(10, 3, 2, datagen.Independent, 1)
	r2 := synthetic(10, 3, 2, datagen.Independent, 2)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 4}
	if _, err := MembershipContext(context.Background(), q, [][2]int{{-1, 0}}); err == nil {
		t.Error("out-of-range pair accepted")
	}
	// Find a non-compatible pair (different keys).
	for j := 0; j < r2.Len(); j++ {
		if r2.Key(j) != r1.Key(0) {
			if _, err := MembershipContext(context.Background(), q, [][2]int{{0, j}}); err == nil {
				t.Error("join-incompatible pair accepted")
			}
			break
		}
	}
}
