package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"iotaxo/internal/obs"
)

// proc is one fleet process.
type proc struct {
	role string // "router" or "replica"
	url  string
	cmd  *exec.Cmd
	// exited is closed once the process has been reaped; waitErr is its
	// exit status.
	exited  chan struct{}
	waitErr error
}

// fleetProcs is a running fleet: one ioserve, or iorouter over two.
type fleetProcs struct {
	procs []*proc
	// entry is the base URL clients send predict requests to.
	entry string
}

// freePorts asks the kernel for n distinct unused loopback ports, holding
// every listener until all are chosen so no two fleet processes get the
// same one.
func freePorts(n int) ([]string, error) {
	var addrs []string
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// shape is which processes a fleet has.
type shape struct {
	replicas int
	router   bool
}

// fleetShape is the fleet a workload is measured on: iorouter over two
// ioserve replicas when routed, otherwise one ioserve.
func fleetShape(w workload) shape {
	if w.routed {
		return shape{replicas: 2, router: true}
	}
	return shape{replicas: 1}
}

// startFleet launches a fleet on loopback with default flags apart from
// addresses and the registry path. Process output goes to log files under
// logDir.
func startFleet(sh shape, binDir, regDir, logDir string) (*fleetProcs, error) {
	nReplicas := sh.replicas
	addrs, err := freePorts(nReplicas + 1)
	if err != nil {
		return nil, err
	}
	f := &fleetProcs{}
	var replicaURLs []string
	for k, addr := range addrs[:nReplicas] {
		p, err := spawn("replica", "http://"+addr, filepath.Join(logDir, fmt.Sprintf("ioserve-%d.log", k)),
			filepath.Join(binDir, "ioserve"), "-models", regDir, "-addr", addr)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		replicaURLs = append(replicaURLs, p.url)
	}
	f.entry = replicaURLs[0]
	if sh.router {
		addr := addrs[nReplicas]
		p, err := spawn("router", "http://"+addr, filepath.Join(logDir, "iorouter.log"),
			filepath.Join(binDir, "iorouter"), "-addr", addr, "-replicas", strings.Join(replicaURLs, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		f.entry = p.url
	}
	return f, nil
}

func spawn(role, url, logPath, bin string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The fleet must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{role: role, url: url, cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

func (f *fleetProcs) replicas() []*proc {
	var out []*proc
	for _, p := range f.procs {
		if p.role == "replica" {
			out = append(out, p)
		}
	}
	return out
}

// ready polls until the fleet answers one predict through its entry
// point. Replicas are polled on /healthz first and the router last, so no
// predict reaches the router before its replicas listen (an early one
// would count against their circuit breakers).
func (f *fleetProcs) ready(probe []byte, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	poll := func(p *proc, try func() error) error {
		for {
			err := try()
			if err == nil {
				return nil
			}
			select {
			case <-p.exited:
				return fmt.Errorf("%s %s exited during set-up: %v", p.role, p.url, p.waitErr)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s %s not ready after %v: %w", p.role, p.url, timeout, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, p := range f.procs {
		if err := poll(p, func() error { return getOK(client, p.url+"/healthz") }); err != nil {
			return err
		}
	}
	entry := f.procs[len(f.procs)-1]
	return poll(entry, func() error {
		resp, err := client.Post(f.entry+"/v1/predict", "application/json", bytes.NewReader(probe))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("probe predict: status %d", resp.StatusCode)
		}
		return nil
	})
}

func getOK(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// setupCost is what one launch took, from launching the processes until the
// first predict succeeds through the entry point: wall time, and the CPU
// time the fleet's processes spent in it.
type setupCost struct {
	wall  time.Duration
	cpuNs int64
}

// launch starts a fleet and returns it with its set-up cost.
func launch(sh shape, binDir, regDir, logDir string, probe []byte) (*fleetProcs, setupCost, error) {
	start := time.Now()
	f, err := startFleet(sh, binDir, regDir, logDir)
	if err != nil {
		return nil, setupCost{}, err
	}
	if err := f.ready(probe, 60*time.Second); err != nil {
		f.stop()
		return nil, setupCost{}, err
	}
	c := setupCost{wall: time.Since(start)}
	cpu, err := f.cpuByRole()
	if err != nil {
		f.stop()
		return nil, setupCost{}, err
	}
	for _, ns := range cpu {
		c.cpuNs += ns
	}
	return f, c, nil
}

// stop sends SIGTERM to every process, router first, and waits for each to
// exit; one that outlives its drain window is killed.
func (f *fleetProcs) stop() error {
	var errs []error
	for i := len(f.procs) - 1; i >= 0; i-- {
		p := f.procs[i]
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
			if p.waitErr != nil {
				errs = append(errs, fmt.Errorf("%s %s: %w", p.role, p.url, p.waitErr))
			}
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
			errs = append(errs, fmt.Errorf("%s %s: killed after drain timeout", p.role, p.url))
		}
	}
	f.procs = nil
	return errors.Join(errs...)
}

// cpuNs is a process's CPU time (user plus system) in nanoseconds: the sum
// of its threads' run time from /proc/<pid>/task/*/schedstat.
func cpuNs(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("reading schedstat of pid %d: no tasks", pid)
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between the glob and the read
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", t, err)
		}
		total += ns
	}
	return total, nil
}

// cpuByRole reads every fleet process's CPU time, summed per role.
func (f *fleetProcs) cpuByRole() (map[string]int64, error) {
	out := map[string]int64{}
	for _, p := range f.procs {
		ns, err := cpuNs(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[p.role] += ns
	}
	return out, nil
}

// peakRSSKiB sums VmHWM over the fleet's processes.
func (f *fleetProcs) peakRSSKiB() (int64, error) {
	var total int64
	for _, p := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
				}
				total += kib
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
		}
	}
	return total, nil
}

// scrape reads every replica's /metrics and sums each series, keyed by
// name and label block, across them.
func (f *fleetProcs) scrape() (map[string]float64, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	out := map[string]float64{}
	for _, p := range f.replicas() {
		resp, err := client.Get(p.url + "/metrics")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s/metrics: status %d", p.url, resp.StatusCode)
		}
		families, err := obs.ParsePromText(b)
		if err != nil {
			return nil, fmt.Errorf("parsing %s/metrics: %w", p.url, err)
		}
		for _, f := range families {
			for _, smp := range f.Samples {
				out[smp.Name+smp.Labels] += smp.Value
			}
		}
	}
	return out, nil
}
