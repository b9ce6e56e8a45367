package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"maybms/internal/server/client"
)

// buildServer compiles the checkout's maybmsd into dir: the end-to-end half
// drives the real binary, built from the source the benchmark sits next to.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "maybmsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/maybmsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building maybmsd in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// serverProc is one running maybmsd.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	// logDone closes when the stderr pump has seen EOF, after which log is
	// stable.
	logDone chan struct{}
	mu      sync.Mutex
	log     []string
}

// live tracks the running servers, so that an interrupted benchmark can stop
// them before it exits.
var live = struct {
	sync.Mutex
	procs map[*serverProc]bool
}{procs: make(map[*serverProc]bool)}

// killServers stops every running maybmsd.
func killServers() {
	live.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

var servingRE = regexp.MustCompile(`serving on (\S+)`)

// bootTimeout bounds how long a boot may take before the run fails; the
// largest store ingests in a few seconds.
const bootTimeout = 120 * time.Second

// startServer spawns maybmsd on an ephemeral port and waits until its log
// names the listen address.
func startServer(bin string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, logDone: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	live.Lock()
	live.procs[p] = true
	live.Unlock()
	addrc := make(chan string, 1) // one send: the first "serving on" line
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log = append(p.log, line)
			p.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil && !sent {
				sent = true
				addrc <- m[1]
			}
		}
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.logDone:
		p.kill()
		return nil, fmt.Errorf("maybmsd exited during boot:\n%s", p.logText())
	case <-time.After(bootTimeout):
		p.kill()
		return nil, fmt.Errorf("maybmsd did not listen within %s:\n%s", bootTimeout, p.logText())
	}
}

func (p *serverProc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// kill stops the server with SIGKILL — no drain, no checkpoint — and waits
// for the process and its log pump to end.
func (p *serverProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck // already exited is fine
	<-p.logDone
	p.cmd.Wait() //nolint:errcheck // killed on purpose
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func (p *serverProc) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %v", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// bootAndPrepare is what setup_s times: spawn maybmsd, wait for the first
// successful handshake, prepare one statement. The returned connection is
// open.
func bootAndPrepare(bin string, args []string, stmt string) (*serverProc, *client.Conn, time.Duration, error) {
	p, err := startServer(bin, args)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := client.Dial(p.addr)
	if err != nil {
		p.kill()
		return nil, nil, 0, err
	}
	st, err := c.Prepare(stmt)
	if err != nil {
		c.Close()
		p.kill()
		return nil, nil, 0, fmt.Errorf("preparing %q: %w", stmt, err)
	}
	setup := time.Since(p.started)
	st.Close() //nolint:errcheck // the probe statement is not used again
	return p, c, setup, nil
}
