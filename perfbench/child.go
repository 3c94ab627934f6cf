package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one regserver process.
type child struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

// freeAddr reserves a loopback port for a child's -addr.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startChild boots regserver with args plus a fresh -addr, logging to
// logPath, and waits until it answers /registry/health.
func startChild(ctx context.Context, bin, logPath string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("reserve port: %w", err)
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn", "-pprof"}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start regserver: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, log: log, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(c.base + "/registry/health")
		if err == nil {
			resp.Body.Close()
			return c, nil
		}
		select {
		case <-c.done:
			log.Close()
			return nil, fmt.Errorf("regserver exited during boot; see %s", logPath)
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop kills the child and waits for it to exit.
func (c *child) stop() {
	c.cmd.Process.Kill()
	<-c.done
	c.log.Close()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// cpuTicks returns the process's utime+stime in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return u + s, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 10 * time.Millisecond

// vmHWM returns the process's peak resident set in bytes.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape reads /registry/metrics and sums every sample of each family
// across its labels.
func scrape(ctx context.Context, c *regClient, base string) (map[string]float64, error) {
	code, body, err := c.get(ctx, base+"/registry/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, nil
}

// runtimeStat reads one runtime.MemStats field (Mallocs, HeapAlloc, …)
// from the -pprof heap profile's text form; gc runs a collection first.
func runtimeStat(ctx context.Context, c *regClient, base, field string, gc bool) (float64, error) {
	url := base + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	_, body, err := c.get(ctx, url)
	if err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	key := "# " + field + " = "
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("heap profile: no %s line", field)
	}
	line := body[i+len(key):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	return strconv.ParseFloat(string(line), 64)
}

// workDir makes a fresh scratch directory under the build directory.
func workDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
