package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux configuration Go supports).
const clockTicks = 100

// buildCoold compiles cmd/coold from the tree at root into out.
func buildCoold(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/coold")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/coold: %w", err)
	}
	return nil
}

// daemon is one running coold process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	logs sync.WaitGroup

	mu       sync.Mutex
	gcCycles int
	gcCPU    time.Duration // CPU the collector used, summed over cycles
}

// startDaemon launches coold the way production runs it: a data dir,
// every other flag at its default, and a kernel-chosen loopback port
// read back from the "listening on" log line. With gctrace the runtime
// reports each GC cycle on stderr, which the daemon counts.
func startDaemon(bin, dataDir string, gctrace bool) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting coold: %w", err)
	}
	addrc := make(chan string, 1)
	d.logs.Add(2)
	go func() {
		defer d.logs.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	go func() {
		defer d.logs.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.gcLine(sc.Text())
		}
	}()
	go func() {
		d.logs.Wait() // pipes must be drained before Wait closes them
		cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, errors.New("coold exited before listening")
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, errors.New("coold did not report a listening address")
	}
}

// gcLine parses one GODEBUG=gctrace=1 line,
//
//	gc 12 @1.2s 3%: 0.02+0.4+0.05 ms clock, 0.1+0.2/0.3/0.1+0.2 ms cpu, …
//
// counting the cycle and the CPU its phases used (the "ms cpu" terms).
func (d *daemon) gcLine(line string) {
	f := strings.Fields(line)
	if len(f) < 10 || f[0] != "gc" || f[8] != "ms" || f[9] != "cpu," {
		return
	}
	var cpu float64
	for _, term := range strings.FieldsFunc(f[7], func(r rune) bool { return r == '+' || r == '/' }) {
		v, err := strconv.ParseFloat(term, 64)
		if err != nil {
			return
		}
		cpu += v
	}
	d.mu.Lock()
	d.gcCycles++
	d.gcCPU += time.Duration(cpu * float64(time.Millisecond))
	d.mu.Unlock()
}

func (d *daemon) gcStats() (int, time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gcCycles, d.gcCPU
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process and its log readers.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// cpuTime returns the process's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	return procCPU(d.pid())
}

func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// status returns a /proc/<pid>/status field in KiB (VmHWM, VmRSS).
func (d *daemon) status(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
