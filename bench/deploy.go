package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one ksjqd server process.
type proc struct {
	args []string
	addr string
	cmd  *exec.Cmd
	logf *os.File
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// deployment is the set of real server processes one workload runs against:
// a single ksjqd (optionally durable), or two shards and a gateway. The
// entry point — the process clients talk to — is the last one.
type deployment struct {
	bin     string
	dir     string // logs and, for a durable deployment, the data directory
	procs   []*proc
	dataDir string
}

// live tracks every started process so that a signal or a panic anywhere
// still reaps them all: the benchmark must leave no process behind.
var live = struct {
	sync.Mutex
	procs map[*proc]struct{}
}{procs: make(map[*proc]struct{})}

func killAllLive() {
	live.Lock()
	defer live.Unlock()
	for p := range live.procs {
		if p.cmd != nil {
			_ = p.cmd.Process.Kill() // already exited is fine
			<-p.exited
		}
	}
	live.procs = make(map[*proc]struct{})
}

// freeAddrs reserves n distinct loopback ports: all n are bound before any
// is released, or the kernel may hand the same port out twice.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// newDeployment lays out the processes of a workload's deployment under
// dir; nothing is started yet.
func newDeployment(cfg runConfig, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{bin: cfg.bin, dir: dir}
	var args [][]string
	switch cfg.workload {
	case "ingest":
		d.dataDir = filepath.Join(dir, "data")
		args = [][]string{{"-data", d.dataDir, "-checkpoint-interval", cfg.checkpoint.String()}}
	case "cluster":
		args = [][]string{nil, nil, {"-gateway", "-shards"}}
	default:
		args = [][]string{nil}
	}
	addrs, err := freeAddrs(len(args))
	if err != nil {
		return nil, err
	}
	if cfg.workload == "cluster" {
		args[2] = append(args[2], addrs[0]+","+addrs[1])
	}
	for i, a := range args {
		d.procs = append(d.procs, &proc{addr: addrs[i], args: append([]string{"-addr", addrs[i]}, a...)})
	}
	return d, nil
}

// url is the base URL clients send to.
func (d *deployment) url() string { return "http://" + d.procs[len(d.procs)-1].addr }

// start boots every process in order (shards before the gateway that pings
// them) and returns once each answers /healthz.
func (d *deployment) start() error {
	for i, p := range d.procs {
		logf, err := os.OpenFile(filepath.Join(d.dir, fmt.Sprintf("ksjqd-%d.log", i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		p.logf = logf
		p.cmd = exec.Command(d.bin, p.args...)
		p.cmd.Stdout, p.cmd.Stderr = logf, logf
		if err := p.cmd.Start(); err != nil {
			logf.Close()
			p.cmd = nil
			return fmt.Errorf("starting %s: %w", d.bin, err)
		}
		p.exited = make(chan struct{})
		go func() {
			_ = p.cmd.Wait() // the exit status is read from ProcessState
			close(p.exited)
		}()
		live.Lock()
		live.procs[p] = struct{}{}
		live.Unlock()
		if err := waitHealthy(p, 15*time.Second); err != nil {
			return fmt.Errorf("%w (log: %s)", err, logf.Name())
		}
	}
	return nil
}

// healthClient opens a fresh connection per probe, so probing never leaves
// a connection behind that would count against the workload's two.
var healthClient = &http.Client{
	Timeout:   time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func waitHealthy(p *proc, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := healthClient.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			// Without this a neighbour that took the port could answer in
			// the dead process's name.
			return fmt.Errorf("ksjqd at %s exited during boot: %v", p.addr, p.cmd.ProcessState)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ksjqd at %s not healthy after %v: %v", p.addr, limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop signals every process, the entry point first, and waits for each.
func (d *deployment) stop(sig syscall.Signal) error {
	var first error
	for i := len(d.procs) - 1; i >= 0; i-- {
		p := d.procs[i]
		if p.cmd == nil {
			continue
		}
		_ = p.cmd.Process.Signal(sig) // already exited is fine
		<-p.exited
		if sig == syscall.SIGTERM && p.cmd.ProcessState != nil && !p.cmd.ProcessState.Success() && first == nil {
			first = fmt.Errorf("ksjqd at %s exited uncleanly on SIGTERM: %v", p.addr, p.cmd.ProcessState)
		}
		p.logf.Close()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		p.cmd = nil
	}
	return first
}

// kill is a crash: SIGKILL, no chance to flush or checkpoint.
func (d *deployment) kill() { _ = d.stop(syscall.SIGKILL) }

// cpuSeconds sums user and system CPU time over the live processes.
func (d *deployment) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range d.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th overall.
		rest := bytes.Fields(data[bytes.LastIndexByte(data, ')')+1:])
		if len(rest) < 13 {
			return 0, fmt.Errorf("short /proc stat line %q", data)
		}
		for _, f := range rest[11:13] {
			ticks, err := strconv.ParseFloat(string(f), 64)
			if err != nil {
				return 0, err
			}
			total += ticks / clockTicksPerSecond
		}
	}
	return total, nil
}

// clockTicksPerSecond is sysconf(_SC_CLK_TCK), which Linux fixes at 100
// for every architecture Go runs on.
const clockTicksPerSecond = 100

// rssMB sums the peak resident set size (VmHWM) over the live processes.
func (d *deployment) rssMB() (float64, error) {
	total := 0.0
	for _, p := range d.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err != nil {
					return 0, err
				}
				total += kb / 1024
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
		}
	}
	return total, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// buildKsjqd compiles cmd/ksjqd from the repository at root into outDir.
// (bench/run.sh, the contract's command, builds it itself with the Go build
// cache redirected into the checkout, and passes -ksjqd.)
func buildKsjqd(root, outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, "ksjqd")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/ksjqd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/ksjqd: %v\n%s", err, out)
	}
	return bin, nil
}

// findRoot locates the repository root (the directory holding cmd/ksjqd)
// from the working directory: the root itself, or bench/ inside it.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ksjqd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/ksjqd under %s or its parent: run from the repository root or from bench/", wd)
}
