package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wishbone/internal/server"
)

// wbserved is one spawned partition-service process on loopback.
type wbserved struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// spawnWBServed starts the wbserved binary on a free loopback port with
// the given extra environment and waits until /healthz answers. A process
// that exits first (the port was taken between picking and binding it)
// is retried on another port.
func spawnWBServed(bin string, env []string) (*wbserved, error) {
	if bin == "" {
		return nil, fmt.Errorf("no wbserved binary (pass -wbserved)")
	}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var w *wbserved
		if w, err = startWBServed(bin, env); err == nil {
			return w, nil
		}
	}
	return nil, err
}

func startWBServed(bin string, env []string) (*wbserved, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Env = append(os.Environ(), env...)
	// The service must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wbserved: %w", err)
	}
	w := &wbserved{cmd: cmd, url: "http://" + addr, done: make(chan error, 1)}
	go func() { w.done <- cmd.Wait() }()
	client := server.NewClient(w.url, nil)
	deadline := time.Now().Add(20 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ok := client.Healthy(ctx)
		cancel()
		if ok {
			return w, nil
		}
		select {
		case err := <-w.done:
			return nil, fmt.Errorf("wbserved exited before answering: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			w.stop()
			return nil, fmt.Errorf("wbserved at %s not healthy after 20s", w.url)
		}
	}
}

// stop asks the process to drain (SIGTERM) and waits for it to exit,
// killing it if it does not within five seconds.
func (w *wbserved) stop() {
	_ = w.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-w.done:
	case <-time.After(5 * time.Second):
		_ = w.cmd.Process.Kill()
		<-w.done
	}
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func (w *wbserved) peakRSSMiB() (float64, error) {
	return vmHWM(strconv.Itoa(w.cmd.Process.Pid))
}

// vmHWM reads VmHWM from /proc/<pid>/status in MiB ("self" for this
// process).
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// freeAddr returns a loopback address with a port the kernel just handed
// out (and released).
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stats fetches a service's /v1/stats document.
func stats(c *server.Client) (*server.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.Stats(ctx)
}

// endpointDelta is one endpoint's request count and summed handler time
// between two /v1/stats snapshots.
func endpointDelta(before, after *server.Snapshot, name string) (n float64, totalMS float64) {
	a, b := after.Endpoints[name], before.Endpoints[name]
	n = float64(a.Requests - b.Requests)
	totalMS = a.MeanMs*float64(a.Requests) - b.MeanMs*float64(b.Requests)
	return n, totalMS
}

// loopbackTransport returns a transport allowing conns idle connections
// per host, so closed-loop callers reuse their connections.
func loopbackTransport(conns int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conns
	return t
}
