package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
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
	// -workers silently overriding an explicit -alg was a bug; it must now
	// be an error.
	for _, alg := range []string{"naive", "dominator"} {
		o := baseOptions(t)
		o.algName = alg
		o.workers = 3
		var buf bytes.Buffer
		err := run(&buf, o)
		if err == nil {
			t.Fatalf("-workers with -alg %s accepted", alg)
		}
		if !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-alg %s conflict error does not name the flag: %v", alg, err)
		}
	}
	// -alg auto with -workers is not a contradiction: on more than one CPU
	// auto runs grouping, on one it keeps the serial pick (naive for this
	// small join), and the summary reports the arm that ran.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs, want := range map[int]string{2: "auto→parallel-grouping(workers=3)", 1: "auto→N"} {
		runtime.GOMAXPROCS(procs)
		o := baseOptions(t)
		o.algName = "auto"
		o.workers = 3
		var buf bytes.Buffer
		if err := run(&buf, o); err != nil {
			t.Fatalf("-workers with -alg auto rejected: %v", err)
		}
		if !strings.Contains(buf.String(), "algorithm="+want+" ") {
			t.Errorf("GOMAXPROCS=%d: auto+workers summary does not report %s:\n%s", procs, want, buf.String())
		}
	}
	o := baseOptions(t)
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
