package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer lets the test read the daemon's stdout while it is writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// bootDaemon starts Main in-process with the given extra flags and returns
// the daemon's base URL, its exit channel, and its output buffers. The
// listening line is the readiness contract; the bound address is parsed
// from it.
func bootDaemon(t *testing.T, extraArgs ...string) (string, chan int, *syncBuffer, *bytes.Buffer) {
	t.Helper()
	stdout := &syncBuffer{}
	stderr := &bytes.Buffer{}
	exit := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "10s"}, extraArgs...)
	go func() {
		exit <- Main(args, stdout, stderr)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		out := stdout.String()
		if i := strings.Index(out, "listening on "); i >= 0 {
			rest := out[i+len("listening on "):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				addr = rest[:j]
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never printed its listening line; stderr: %s", stderr.String())
	}
	return "http://" + addr, exit, stdout, stderr
}

// TestDaemonBootServeDrain boots the daemon on an ephemeral port, serves a
// request through it, sends SIGTERM, and requires a clean drained exit.
func TestDaemonBootServeDrain(t *testing.T) {
	base, exit, stdout, stderr := bootDaemon(t)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	// A real request through the full stack.
	body := strings.NewReader(`{"spec":{"seed":3,"num_files":50,"num_dirs":10,"fs_size_bytes":51200}}`)
	req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/plans", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/plans: %v", err)
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/plans: HTTP %d, read err %v", resp.StatusCode, err)
	}
	if !bytes.Contains(doc, []byte(`"fragments"`)) {
		t.Fatalf("plan response does not look like a fragment index: %.80s", doc)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain and exit after SIGTERM")
	}
	if out := stdout.String(); !strings.Contains(out, "stopped") {
		t.Fatalf("daemon never reported a clean stop; stdout: %s", out)
	}
}

// TestDaemonDrainWindow: with -drain-grace set, SIGTERM first flips /readyz
// to 503 while the daemon keeps serving (the window a load balancer needs
// to stop routing), and only then does the daemon exit.
func TestDaemonDrainWindow(t *testing.T) {
	base, exit, _, stderr := bootDaemon(t, "-drain-grace", "500ms")

	get := func(path string) (int, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	if code, err := get("/readyz"); err != nil || code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, %v", code, err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}

	// Inside the grace window the daemon must still answer — not-ready on
	// /readyz, alive on /healthz.
	sawDraining := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, err := get("/readyz")
		if err != nil {
			break // listener closed: window over
		}
		if code == http.StatusServiceUnavailable {
			sawDraining = true
			if live, err := get("/healthz"); err != nil || live != http.StatusOK {
				t.Fatalf("/healthz during drain: %d, %v (liveness must hold while draining)", live, err)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDraining {
		t.Fatal("/readyz never returned 503 during the drain window")
	}

	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after the drain window")
	}
}
