package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
)

// Run hygiene for the child processes the benchmark starts (janusd,
// janusfront, and its own set-up probes): each is registered on start and
// killed and reaped on every exit path, signals included; the kernel
// kills it too if the benchmark dies first (Pdeathsig).

type child struct {
	name string
	cmd  *exec.Cmd
	out  *bytes.Buffer // captured stdout, when no log file was given
	log  string
	url  string
	up   time.Duration // from spawn to the first healthy reply (servers)
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

var children struct {
	sync.Mutex
	live   map[*child]bool
	closed bool
}

// spawn starts bin with args. Its stdout and stderr go to logPath, or are
// captured for output when logPath is empty.
func spawn(name, bin string, args []string, logPath string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), log: logPath, done: make(chan struct{})}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if logPath != "" {
		f, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		defer f.Close() // the child holds its own descriptor
		c.cmd.Stdout, c.cmd.Stderr = f, f
	} else {
		c.out = &bytes.Buffer{}
		c.cmd.Stdout, c.cmd.Stderr = c.out, os.Stderr
	}
	children.Lock()
	defer children.Unlock()
	if children.closed {
		return nil, fmt.Errorf("shutting down")
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	go func() {
		c.err = c.cmd.Wait()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

// output waits for a captured child to exit and returns its stdout.
func (c *child) output() (string, error) {
	<-c.done
	if c.err != nil {
		return "", c.err
	}
	return c.out.String(), nil
}

// stop kills the child and waits until it has been reaped, returning the
// CPU time it used.
func (c *child) stop() time.Duration {
	c.cmd.Process.Kill() //nolint:errcheck // already exited is fine; done below tells
	<-c.done
	st := c.cmd.ProcessState
	return st.UserTime() + st.SystemTime()
}

// killAll kills every live child, waits for each, and refuses new ones.
func killAll() {
	children.Lock()
	children.closed = true
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.cmd.Process.Kill() //nolint:errcheck // it may have exited on its own
		<-c.done
	}
}

// logTail returns the end of a child's log, for error messages.
func (c *child) logTail() string {
	b, err := os.ReadFile(c.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// freeAddr picks a free loopback port and checks that nothing answers on
// it: a stale daemon answering on a reused port would make a cold run
// spuriously warm.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	if conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
		conn.Close()
		return "", fmt.Errorf("refusing to start: something already answers on %s", addr)
	}
	return addr, nil
}

// startServer spawns a janusd or janusfront on a free loopback port, waits
// for a healthy /healthz, and checks from /metrics that the process that
// answered is fresh (freshCounter still 0), not a stale one.
func startServer(name, bin string, args []string, logPath, freshCounter string, hc *http.Client) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := spawn(name, bin, append([]string{"-addr", addr}, args...), logPath)
	if err != nil {
		return nil, err
	}
	c.url = "http://" + addr
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("%s exited before it was healthy (%v): %s", name, c.err, c.logTail())
		default:
		}
		resp, err := hc.Get(c.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.up = time.Since(t0)
				break
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("%s not healthy on %s within 20s: %s", name, addr, c.logTail())
		}
		time.Sleep(100 * time.Microsecond) // fine enough to time a ≈4 ms start
	}
	snap, err := scrape(hc, c.url)
	if err != nil {
		c.stop()
		return nil, err
	}
	select {
	case <-c.done:
		return nil, fmt.Errorf("%s on %s exited after a healthy reply: another process answers there", name, addr)
	default:
	}
	if v := snap.Get(freshCounter); v != 0 {
		c.stop()
		return nil, fmt.Errorf("%s on %s is not fresh (%s = %d): a stale process answers there", name, addr, freshCounter, v)
	}
	return c, nil
}

// scrape reads a server's exported metrics (GET /metrics).
func scrape(hc *http.Client, base string) (obsv.Snapshot, error) {
	var s obsv.Snapshot
	return s, getJSON(hc, base+"/metrics", &s)
}

// memStats reads a server's runtime.MemStats totals from expvar.
type memStats struct {
	TotalAlloc uint64
	NumGC      uint32
}

func scrapeMem(hc *http.Client, base string) (memStats, error) {
	var v struct{ Memstats memStats }
	return v.Memstats, getJSON(hc, base+"/debug/vars", &v)
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// post sends one synthesis request and decodes the answer. A 429 is
// retried up to three times after its Retry-After (capped at 1 s); a
// request still shed after that is an error.
func post(hc *http.Client, base string, body []byte) (*answer, error) {
	for attempt := 0; ; attempt++ {
		resp, err := hc.Post(base+"/v1/synthesize", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 3 {
			wait := 50 * time.Millisecond
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = min(time.Duration(s)*time.Second, time.Second)
			}
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		}
		var a answer
		if err := json.Unmarshal(b, &a); err != nil {
			return nil, wrongAnswer(fmt.Sprintf("undecodable answer: %v", err))
		}
		return &a, nil
	}
}
