package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/ksjq"
)

// writeCSV drops a small relation file into dir and returns its path.
func writeCSV(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The paper's flight example, reduced to the two groups that matter.
const csvR1 = `key,a0,a1,a2,a3
C,448,3.2,40,40
C,468,4.2,50,38
F,452,3.6,20,36
`

const csvR2 = `key,a0,a1,a2,a3
C,356,2.8,60,30
C,360,3.0,70,28
F,352,2.6,20,32
`

func baseOptions(t *testing.T) options {
	t.Helper()
	dir := t.TempDir()
	return options{
		r1Path: writeCSV(t, dir, "r1.csv", csvR1),
		r2Path: writeCSV(t, dir, "r2.csv", csvR2),
		l1:     4, l2: 4,
		k:       7,
		algName: "grouping",
		cond:    "eq",
		aggFn:   "sum",
	}
}

func TestRunQuery(t *testing.T) {
	for _, alg := range []string{"grouping", "dominator", "naive", "auto"} {
		o := baseOptions(t)
		o.algName = alg
		var buf bytes.Buffer
		if err := run(&buf, o); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		out := buf.String()
		if !strings.Contains(out, "skylines=2") {
			t.Errorf("%s: expected 2 skylines:\n%s", alg, out)
		}
		if !strings.Contains(out, "C ⋈ C") || !strings.Contains(out, "F ⋈ F") {
			t.Errorf("%s: expected skyline tuples in output:\n%s", alg, out)
		}
	}
}

func TestRunParallelFlag(t *testing.T) {
	o := baseOptions(t)
	o.workers = 3
	var buf bytes.Buffer
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "parallel-grouping(workers=3)") {
		t.Errorf("missing parallel marker:\n%s", buf.String())
	}
}

func TestRunQuiet(t *testing.T) {
	o := baseOptions(t)
	o.quiet = true
	var buf bytes.Buffer
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "⋈") {
		t.Errorf("quiet output leaked tuples:\n%s", buf.String())
	}
}

func TestRunFindK(t *testing.T) {
	o := baseOptions(t)
	o.delta = 1
	o.k = 0
	o.findAlg = "binary"
	var buf bytes.Buffer
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k = ") {
		t.Errorf("find-k output missing:\n%s", buf.String())
	}
	o.atMost = true
	buf.Reset()
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k = ") {
		t.Errorf("at-most output missing:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{}); err == nil {
		t.Error("missing files accepted")
	}
	o := baseOptions(t)
	o.r2Path = filepath.Join(t.TempDir(), "missing.csv")
	if err := run(&buf, o); err == nil {
		t.Error("unreadable file accepted")
	}
	o = baseOptions(t)
	o.algName = "quantum"
	if err := run(&buf, o); err == nil {
		t.Error("unknown algorithm accepted")
	}
	o = baseOptions(t)
	o.cond = "like"
	if err := run(&buf, o); err == nil {
		t.Error("unknown join condition accepted")
	}
	o = baseOptions(t)
	o.aggFn = "median"
	if err := run(&buf, o); err == nil {
		t.Error("unknown aggregator accepted")
	}
	o = baseOptions(t)
	o.k = 99
	if err := run(&buf, o); err == nil {
		t.Error("out-of-range k accepted")
	}
	o = baseOptions(t)
	o.delta = 1
	o.findAlg = "bogo"
	if err := run(&buf, o); err == nil {
		t.Error("unknown find-k algorithm accepted")
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := parseSpec("lt", "max")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cond != ksjq.BandLess || spec.Agg.Name != "max" {
		t.Errorf("parseSpec = %+v", spec)
	}
	for _, cond := range []string{"eq", "cross", "le", "gt", "ge"} {
		if _, err := parseSpec(cond, "sum"); err != nil {
			t.Errorf("parseSpec(%q): %v", cond, err)
		}
	}
}

func TestRunConflictingFlags(t *testing.T) {
	// -workers silently overriding an explicit -alg was a bug; beside
	// naive, the one arm without cells to verify in parallel, it must be
	// an error.
	o := baseOptions(t)
	o.algName = "naive"
	o.workers = 3
	err := run(&bytes.Buffer{}, o)
	if err == nil {
		t.Fatal("-workers with -alg naive accepted")
	}
	if !strings.Contains(err.Error(), "-workers") {
		t.Errorf("-alg naive conflict error does not name the flag: %v", err)
	}
	// Every other arm takes -workers, and the summary marks the parallel
	// run whichever cell arm it is; auto keeps its serial pick (naive for
	// this small join, which then runs serially).
	for alg, want := range map[string]string{
		"dominator": "parallel-dominator(workers=3)",
		"auto":      "auto→N",
	} {
		o := baseOptions(t)
		o.algName = alg
		o.workers = 3
		var buf bytes.Buffer
		if err := run(&buf, o); err != nil {
			t.Fatalf("-workers with -alg %s rejected: %v", alg, err)
		}
		if !strings.Contains(buf.String(), "algorithm="+want+" ") {
			t.Errorf("-alg %s with -workers: summary does not report %s:\n%s", alg, want, buf.String())
		}
	}
	o = baseOptions(t)
	o.workers = 2
	o.delta = 1
	if err := run(&bytes.Buffer{}, o); err == nil {
		t.Error("-workers with -delta accepted")
	}
}

func TestRunTimeout(t *testing.T) {
	// An already-expired deadline must abort the query with the context
	// error instead of returning an answer.
	o := baseOptions(t)
	o.timeout = time.Nanosecond
	var buf bytes.Buffer
	err := run(&buf, o)
	if err == nil {
		t.Fatal("expired -timeout still returned an answer")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	// A generous deadline must not interfere.
	o = baseOptions(t)
	o.timeout = time.Minute
	buf.Reset()
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "skylines=2") {
		t.Errorf("timed run lost the answer:\n%s", buf.String())
	}
}
