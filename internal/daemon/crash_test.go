package daemon

// The process-kill chaos harness: hiddend runs as a real subprocess (this
// test binary re-executed with SLICEHIDE_HIDDEND_CHILD=1), gets SIGKILLed
// at seeded points mid-corpus, and is restarted against the same
// -data-dir. The client drives the full open program through its
// reconnecting transport across every kill; the run must produce
// byte-identical output and leave the server with the exact execution
// tallies of an unkilled run — the end-to-end proof that the journal,
// snapshots, and the recovered replay cache preserve exactly-once across
// process death.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

const childEnv = "SLICEHIDE_HIDDEND_CHILD"

// fsyncEnv turns on -fsync for every durable (-data-dir) hiddend child,
// so the CI chaos leg exercises the group-commit path (batched writes,
// one flush per batch) under the byte-identical-output referee. hiddend
// refuses -fsync without -data-dir, so in-memory children run without it.
const fsyncEnv = "SLICEHIDE_CHAOS_FSYNC"

func chaosFsync() bool {
	switch os.Getenv(fsyncEnv) {
	case "1", "true", "on":
		return true
	}
	return false
}

// TestMain re-executes this binary as hiddend when the child marker is
// set, so subprocess tests exercise the exact daemon.Main code path
// cmd/hiddend runs.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// chaosSrc makes ~25 hidden activations with several fragment calls each,
// so there are plenty of interactions to seed kills between.
const chaosSrc = `
func f(x: int, y: int): int {
    var a: int = x * 3 + y;
    var s: int = 0;
    var i: int = 0;
    while (i < a) {
        s = s + i * 2;
        i = i + 1;
    }
    return s;
}
func main() {
    var total: int = 0;
    for (var n: int = 0; n < 25; n++) {
        total = total + f(n % 6, n % 4);
    }
    print(total);
}`

const chaosSplit = "f:a"

func chaosResult(t *testing.T) *core.Result {
	t.Helper()
	prog, err := ir.Compile(chaosSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SplitProgram(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func writeProgram(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mj")
	if err := os.WriteFile(path, []byte(chaosSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// pickPort reserves a free TCP port so every hiddend incarnation can
// listen on the same address the client keeps redialing.
func pickPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// child is one hiddend subprocess incarnation.
type child struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer

	mu    sync.Mutex
	admin string

	ready chan struct{}
}

// startChild launches this test binary as hiddend and waits until it
// reports the listener is up.
func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	if chaosFsync() && slices.Contains(args, "-data-dir") {
		args = append([]string{"-fsync"}, args...)
	}
	c := &child{stderr: &bytes.Buffer{}, ready: make(chan struct{})}
	c.cmd = exec.Command(os.Args[0], args...)
	c.cmd.Env = append(os.Environ(), childEnv+"=1")
	c.cmd.Stderr = c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go c.scan(stdout)
	select {
	case <-c.ready:
	case <-time.After(30 * time.Second):
		c.kill()
		t.Fatalf("hiddend child never became ready; stderr:\n%s", c.stderr.String())
	}
	return c
}

func (c *child) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "admin endpoint on http://"); ok {
			addr, _, _ := strings.Cut(rest, " ")
			c.mu.Lock()
			c.admin = addr
			c.mu.Unlock()
		}
		if strings.HasPrefix(line, "hiddend listening on ") {
			close(c.ready)
		}
	}
}

func (c *child) adminAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admin
}

// kill SIGKILLs the child and reaps it — no drain, no final snapshot.
func (c *child) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// scrapeGauges reads the admin /metrics endpoint's gauge map.
func scrapeGauges(t *testing.T, admin string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return snap.Gauges
}

// killerTransport counts logical round trips and fires the kill hook
// when a seeded threshold is reached — synchronously, so each kill lands
// at a deterministic point in the corpus.
type killerTransport struct {
	inner hrt.Transport
	n     int64
	kills []int64
	fire  func(kill int)
	fired int
}

func (k *killerTransport) RoundTrip(req hrt.Request) (hrt.Response, error) {
	k.n++
	if len(k.kills) > 0 && k.n == k.kills[0] {
		k.kills = k.kills[1:]
		k.fired++
		k.fire(k.fired)
	}
	return k.inner.RoundTrip(req)
}

// chaosClient runs the open program against addr with kills seeded at the
// given interaction counts. The session rides one stream of a multiplexed
// connection, which survives kills by re-dialing and replaying
// unacknowledged frames.
func chaosClient(t *testing.T, res *core.Result, addr string, session uint64, kills []int64, fire func(int)) (string, error) {
	t.Helper()
	policy := hrt.RetryPolicy{
		Retries:     60,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	}
	mt, err := hrt.DialMux(hrt.MuxConfig{
		Addr:    addr,
		Timeout: 2 * time.Second,
		Policy:  policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	killer := &killerTransport{inner: mt.Stream(session, nil), kills: kills, fire: fire}
	var b strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &b,
		Hidden:     &hrt.Session{T: killer, Addr: addr},
		SplitFuncs: res.SplitSet(),
	})
	runErr := in.Run()
	if len(killer.kills) > 0 {
		t.Fatalf("corpus too short: %d seeded kills never fired", len(killer.kills))
	}
	return b.String(), runErr
}

// TestCrashRecoveryAcrossKills is the durable chaos run: three SIGKILLs
// mid-corpus, three recoveries from the same -data-dir, one program run
// with byte-identical output and exact server-side tallies.
func TestCrashRecoveryAcrossKills(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	res := chaosResult(t)
	want, _, err := hrt.RunOriginal(res.Orig, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}

	// Control: the same client run against an unkilled in-process server
	// fixes the exact execution tallies chaos must reproduce.
	control := &hrt.TCPServer{Server: hrt.NewServer(hrt.NewRegistry(res))}
	caddr, err := control.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out, err := chaosClient(t, res, caddr.String(), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Fatalf("control output %q, want %q", out, want)
	}
	wantStats := control.Server.Stats()
	control.Close()

	prog := writeProgram(t)
	dataDir := t.TempDir()
	listen := pickPort(t)
	args := []string{
		"-listen", listen, "-split", chaosSplit,
		"-data-dir", dataDir, "-snapshot-every", "16",
		"-admin", "127.0.0.1:0",
		prog,
	}
	c := startChild(t, args...)
	defer func() { c.kill() }()

	out, err = chaosClient(t, res, listen, 77, []int64{5, 30, 70}, func(kill int) {
		t.Logf("kill %d: SIGKILL + restart", kill)
		c.kill()
		c = startChild(t, args...)
	})
	if err != nil {
		t.Fatalf("chaos run failed: %v\nchild stderr:\n%s", err, c.stderr.String())
	}
	if out != want {
		t.Errorf("chaos output %q, want byte-identical %q", out, want)
	}

	gauges := scrapeGauges(t, c.adminAddr())
	for name, want := range map[string]int64{
		"hrt_executed_enters": wantStats.Enters,
		"hrt_executed_exits":  wantStats.Exits,
		"hrt_executed_calls":  wantStats.Calls,
	} {
		if got := gauges[name]; got != want {
			t.Errorf("%s = %d after 3 kills, want exactly %d", name, got, want)
		}
	}
	if gauges["hrt_executed_enters"] == 0 {
		t.Error("suspicious zero enter count: metrics scrape hit the wrong server?")
	}
}

// TestNonDurableRestartBouncesSessions: without -data-dir a restart loses
// the replay cache, and the live session must bounce with the typed
// session-evicted error rather than silently re-execute.
func TestNonDurableRestartBouncesSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	res := chaosResult(t)
	prog := writeProgram(t)
	listen := pickPort(t)
	args := []string{"-listen", listen, "-split", chaosSplit, prog}
	c := startChild(t, args...)
	defer func() { c.kill() }()

	_, err := chaosClient(t, res, listen, 99, []int64{20}, func(int) {
		c.kill()
		c = startChild(t, args...)
	})
	if err == nil {
		t.Fatal("non-durable restart mid-session did not fail the run")
	}
	var evicted *hrt.SessionEvictedError
	if !errors.As(err, &evicted) {
		t.Fatalf("restart surfaced %v, want a session-evicted bounce typed *hrt.SessionEvictedError", err)
	}
	if evicted.Session != 99 || evicted.Hint() == "" {
		t.Errorf("evicted error incomplete: %+v hint=%q", evicted, evicted.Hint())
	}
}

// TestSigtermDrainsGracefully: SIGTERM on a non-durable server drains
// in-flight connections (bounded by -drain-timeout) and exits 0,
// reporting the drain outcome.
func TestSigtermDrainsGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness")
	}
	prog := writeProgram(t)
	listen := pickPort(t)
	c := startChild(t, "-listen", listen, "-split", chaosSplit,
		"-drain-timeout", "300ms", prog)

	// An idle client connection holds the drain open until its deadline.
	conn, err := net.Dial("tcp", listen)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("hiddend exited non-zero after SIGTERM: %v\nstderr:\n%s", err, c.stderr.String())
		}
	case <-time.After(15 * time.Second):
		c.kill()
		t.Fatal("hiddend did not exit after SIGTERM")
	}
}

// TestGracefulRestartResumesDurableState: SIGTERM (not SIGKILL) writes the
// final snapshot; the next incarnation must recover from it and keep
// serving the same session.
func TestGracefulRestartResumesDurableState(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness")
	}
	res := chaosResult(t)
	want, _, err := hrt.RunOriginal(res.Orig, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	prog := writeProgram(t)
	dataDir := t.TempDir()
	listen := pickPort(t)
	args := []string{"-listen", listen, "-split", chaosSplit,
		"-data-dir", dataDir, "-drain-timeout", "100ms", prog}
	c := startChild(t, args...)
	defer func() { c.kill() }()

	sigterm := func(int) {
		if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Error(err)
		}
		c.cmd.Wait()
		c = startChild(t, args...)
	}
	out, err := chaosClient(t, res, listen, 55, []int64{25}, sigterm)
	if err != nil {
		t.Fatalf("run across graceful restart failed: %v\nchild stderr:\n%s", err, c.stderr.String())
	}
	if out != want {
		t.Errorf("output across graceful restart %q, want %q", out, want)
	}
	// The snapshot directory must hold a usable generation.
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps++
		}
	}
	if snaps == 0 {
		t.Errorf("no snapshot written by graceful shutdown; dir: %v", entries)
	}
}
