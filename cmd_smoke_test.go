package edgetrain

// Build-and-run smoke tests for the command-line tools: every binary under
// cmd/ must compile and execute a minimal invocation successfully, so flag
// plumbing and output paths are exercised by `go test` instead of rotting
// untested.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/plan"
)

// buildCmds compiles all cmd/ binaries into one temp dir and returns it.
func buildCmds(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/...")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/... failed: %v\n%s", err, out)
	}
	return dir
}

func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	bin := buildCmds(t)
	cases := []struct {
		name string
		args []string
		want string // substring the output must contain
	}{
		{"revolveplan-list", []string{"-list"}, "registered planning strategies"},
		{"revolveplan-default", []string{"-l", "40", "-slots", "4"}, "revolve schedule"},
		{"revolveplan-auto", []string{
			"-l", "30", "-strategy", "auto", "-budget", "1MB",
			"-state-bytes", "8KB", "-weight-bytes", "100KB", "-print",
		}, "auto:"},
		{"revolveplan-twolevel-tiers", []string{
			"-l", "40", "-strategy", "twolevel", "-slots", "2", "-disk-slots", "3",
		}, "tier breakdown"},
		{"revolveplan-revolve3-rho", []string{"-l", "21", "-slots", "3"}, "recompute factor:   1.667"},
		{"revolveplan-rho-budget", []string{"-l", "152", "-rho", "2"}, "minimal checkpoint slots: 6"},
		{"revolveplan-auto-storeall", []string{
			"-l", "21", "-strategy", "auto", "-budget", "1GB", "-state-bytes", "1KB",
		}, "auto: storeall, peak 22 states / 0.0 MB RAM, rho=1.000"},
		{"revolveplan-storeall", []string{"-l", "21", "-strategy", "storeall"}, "recompute factor:   1.000"},
		{"revolveplan-storeall-segments", []string{"-l", "21", "-strategy", "storeall"}, "checkpoint_sequential with 21 segments"},
		{"revolveplan-sweep-elided", []string{"-l", "152", "-sweep"}, "optimal checkpointing"},
		{"revolveplan-sequential-elided", []string{"-l", "40", "-sequential"}, "best segment count"},
		{"edgetrainer-auto-spill", []string{
			"-policy", "auto", "-budget", "2MB", "-epochs", "1",
			"-samples", "4", "-batch", "2",
		}, "fits="},
		// A two-level plan spills through the run's one tiered store: its
		// Snapshot tiers alone send states to flash, with no store flag.
		{"edgetrainer-twolevel-spill", []string{
			"-policy", "twolevel", "-slots", "2", "-disk-slots", "3", "-epochs", "1",
			"-samples", "4", "-batch", "2",
		}, "spilled:"},
		{"fleettrainer-fedavg", []string{
			"-nodes", "2", "-rounds", "1", "-samples", "8",
			"-device-mix", "waggle,rpi",
		}, "fleet training report: fedavg"},
		{"fleettrainer-allreduce-mixed", []string{
			"-nodes", "3", "-rounds", "2", "-samples", "12", "-agg", "allreduce",
			"-device-mix", "jetson,waggle,rpi", "-budget", "280KB,210KB,201KB",
			"-participation", "1",
		}, "revolve(1)"},
		{"fleettrainer-compressed", []string{
			"-nodes", "2", "-rounds", "2", "-samples", "8",
			"-compress", "topk:0.25+int8+deflate",
		}, "compression: topk:0.25+int8+deflate"},
		{"memtable", []string{"-table", "1"}, "ResNet"},
		{"figure1-fit", []string{"-fit"}, "min rho (paper)  min rho (engine)"},
		{"aotsim", []string{"-nodes", "3", "-days", "2"}, ""},
	}
	// Further assertions on some cases' output, by case name.
	checks := map[string]func(out string) error{
		// Every option the strategy table advertises is a revolveplan flag.
		"revolveplan-list": func(string) error {
			help, _ := exec.Command(filepath.Join(bin, "revolveplan"), "-h").CombinedOutput()
			for _, info := range plan.Describe() {
				for _, opt := range info.Options {
					if !regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(opt) + `\b`).Match(help) {
						return fmt.Errorf("%s lists option %q, which is no flag of revolveplan -h:\n%s", info.Name, opt, help)
					}
				}
			}
			return nil
		},
		// The paper's column and the engine's, one taped forward apart:
		// 1d's ResNet-152 needs 1.55 and 1.88.
		"figure1-fit": func(out string) error {
			if !regexp.MustCompile(`(?m)^1d +ResNet152 +false +1\.55 +1\.88 +7$`).MatchString(out) {
				return fmt.Errorf("no 1d ResNet152 row at paper rho 1.55, engine rho 1.88, 7 slots")
			}
			return nil
		},
		// Store-all's 21 live tapes compare with one segment per step, not
		// with more segments than the chain has steps.
		"revolveplan-storeall-segments": func(out string) error {
			if strings.Contains(out, "22 segments") {
				return fmt.Errorf("compares a 21-step chain with 22 segments")
			}
			return nil
		},
		"revolveplan-sweep-elided": func(out string) error {
			if n := strings.Count(out, "\n"); n > 45 {
				return fmt.Errorf("%d lines, want at most 45: the table is not elided", n)
			}
			return nil
		},
		"revolveplan-sequential-elided": func(out string) error {
			lines := strings.Split(out, "\n")
			for i, line := range lines {
				if line == "..." {
					if i+1 < len(lines) && strings.HasPrefix(lines[i+1], "39 ") {
						return nil
					}
					return fmt.Errorf("the row after \"...\" is %q, want the s = 39 row", lines[i+1])
				}
			}
			return fmt.Errorf("no \"...\" elision line")
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			binary := strings.SplitN(tc.name, "-", 2)[0]
			cmd := exec.Command(filepath.Join(bin, binary), tc.args...)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v failed: %v\n%s", binary, tc.args, err, out)
			}
			if tc.want != "" && !strings.Contains(string(out), tc.want) {
				t.Fatalf("%s %v output does not contain %q:\n%s", binary, tc.args, tc.want, out)
			}
			if check := checks[tc.name]; check != nil {
				if err := check(string(out)); err != nil {
					t.Fatalf("%s %v: %v\n%s", binary, tc.args, err, out)
				}
			}
		})
	}
}

// TestDistributedFleetSmoke drives the coordinator and two worker binaries
// end to end over 127.0.0.1: the coordinator binds an ephemeral port, two
// edgeworkers join, two rounds complete, and everything shuts down cleanly
// with a non-empty fleet report.
func TestDistributedFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	bin := buildCmds(t)

	coord := exec.Command(filepath.Join(bin, "edgecoord"),
		"-workers", "2", "-rounds", "2", "-samples", "8", "-quiet")
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var coordOut bytes.Buffer
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// The coordinator announces its bound port on the first line.
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		coordOut.WriteString(line + "\n")
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("coordinator never announced its address:\n%s", coordOut.String())
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			coordOut.WriteString(sc.Text() + "\n")
		}
	}()

	workers := make(chan error, 2)
	outs := make([]bytes.Buffer, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			w := exec.Command(filepath.Join(bin, "edgeworker"),
				"-addr", addr, "-name", []string{"w0", "w1"}[i], "-quiet")
			w.Stdout = &outs[i]
			w.Stderr = &outs[i]
			workers <- w.Run()
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-workers:
			if err != nil {
				t.Fatalf("worker failed: %v\nw0: %s\nw1: %s", err, outs[0].String(), outs[1].String())
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("workers did not finish\ncoordinator so far:\n%s", coordOut.String())
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator exited with %v:\n%s", err, coordOut.String())
	}
	<-drained
	out := coordOut.String()
	for _, want := range []string{
		"fleet training report: fedavg, 2 workers, 2 rounds",
		"wire (MB)",
		"final loss",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("coordinator report lacks %q:\n%s", want, out)
		}
	}
	for i := range outs {
		if !strings.Contains(outs[i].String(), "2 rounds contributed") {
			t.Fatalf("worker %d did not contribute 2 rounds:\n%s", i, outs[i].String())
		}
	}
}

// TestCompressedDistributedSmoke repeats the distributed drill with update
// compression negotiated over the wire: the coordinator assigns a lossy codec
// spec in the welcome, both edgeworkers (advertising every codec by default)
// encode their uploads, and the final report carries the compression line and
// a sub-raw uplink byte count.
func TestCompressedDistributedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	bin := buildCmds(t)

	coord := exec.Command(filepath.Join(bin, "edgecoord"),
		"-workers", "2", "-rounds", "2", "-samples", "8",
		"-compress", "topk:0.25+int8+deflate", "-quiet")
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var coordOut bytes.Buffer
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		coordOut.WriteString(line + "\n")
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("coordinator never announced its address:\n%s", coordOut.String())
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			coordOut.WriteString(sc.Text() + "\n")
		}
	}()

	workers := make(chan error, 2)
	outs := make([]bytes.Buffer, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			w := exec.Command(filepath.Join(bin, "edgeworker"),
				"-addr", addr, "-name", []string{"w0", "w1"}[i], "-quiet")
			w.Stdout = &outs[i]
			w.Stderr = &outs[i]
			workers <- w.Run()
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-workers:
			if err != nil {
				t.Fatalf("worker failed: %v\nw0: %s\nw1: %s", err, outs[0].String(), outs[1].String())
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("workers did not finish\ncoordinator so far:\n%s", coordOut.String())
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator exited with %v:\n%s", err, coordOut.String())
	}
	<-drained
	out := coordOut.String()
	for _, want := range []string{
		"update compression: topk:0.25+int8+deflate",
		"fleet training report: fedavg, 2 workers, 2 rounds",
		"compression: topk:0.25+int8+deflate",
		"final loss",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("coordinator report lacks %q:\n%s", want, out)
		}
	}
	for i := range outs {
		if !strings.Contains(outs[i].String(), "2 rounds contributed") {
			t.Fatalf("worker %d did not contribute 2 rounds:\n%s", i, outs[i].String())
		}
	}
}

// TestCoordinatorRestartSmoke is the process-level fault-tolerance drill: a
// coordinator started with -state-dir is SIGKILLed after it has durably saved
// a round, then restarted on the same port and state directory while two
// edgeworkers launched with -retry/-backoff-max ride out the outage on their
// reconnect loops. The run must finish with a full fleet report and both
// workers reporting a clean completion.
func TestCoordinatorRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	bin := buildCmds(t)
	stateDir := filepath.Join(t.TempDir(), "coord-state")

	// A fixed port so the restarted coordinator is reachable at the same
	// address the workers keep redialing. Bind-and-release to find a free one.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	coordArgs := []string{
		"-listen", addr, "-workers", "2", "-rounds", "4", "-samples", "8",
		"-state-dir", stateDir,
	}

	// First life: run until the round-1 checkpoint is durably on disk (the
	// state saver logs after writing), then SIGKILL — no graceful shutdown.
	c1 := exec.Command(filepath.Join(bin, "edgecoord"), coordArgs...)
	stderr, err := c1.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var c1Log bytes.Buffer
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	defer c1.Process.Kill()

	saved := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c1Log.WriteString(line + "\n")
			if strings.Contains(line, "state saved to") && strings.Contains(line, "(next round 2)") {
				close(saved)
				return
			}
		}
	}()

	workers := make(chan error, 2)
	outs := make([]bytes.Buffer, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			w := exec.Command(filepath.Join(bin, "edgeworker"),
				"-addr", addr, "-name", []string{"w0", "w1"}[i],
				"-retry", "100", "-backoff-max", "500ms", "-quiet")
			w.Stdout = &outs[i]
			w.Stderr = &outs[i]
			workers <- w.Run()
		}(i)
	}

	select {
	case <-saved:
	case <-time.After(2 * time.Minute):
		t.Fatalf("coordinator never saved round-1 state:\n%s", c1Log.String())
	}
	c1.Process.Kill()
	c1.Wait()

	// Second life: same port, same state dir. It must announce the resume,
	// re-admit the redialing workers and finish the remaining rounds.
	c2 := exec.Command(filepath.Join(bin, "edgecoord"), coordArgs...)
	var c2Out bytes.Buffer
	c2.Stdout = &c2Out
	c2.Stderr = &c2Out
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	defer c2.Process.Kill()

	for i := 0; i < 2; i++ {
		select {
		case err := <-workers:
			if err != nil {
				t.Fatalf("worker failed: %v\nw0: %s\nw1: %s\ncoordinator:\n%s",
					err, outs[0].String(), outs[1].String(), c2Out.String())
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("workers did not finish after restart\ncoordinator:\n%s", c2Out.String())
		}
	}
	if err := c2.Wait(); err != nil {
		t.Fatalf("restarted coordinator exited with %v:\n%s", err, c2Out.String())
	}

	out := c2Out.String()
	if !strings.Contains(out, "resuming at round ") {
		t.Fatalf("restarted coordinator did not announce the resume:\n%s", out)
	}
	if !strings.Contains(out, "fleet training report: fedavg, 2 workers") {
		t.Fatalf("no fleet report after restart:\n%s", out)
	}
	for i := range outs {
		if !strings.Contains(outs[i].String(), "rounds contributed") {
			t.Fatalf("worker %d did not report completion:\n%s", i, outs[i].String())
		}
	}
}

// TestCheckpointResumeSmoke drives the trainers' durable-checkpoint flags
// end to end: checkpoint a run, resume it from the written directory, and
// reject with a clear error instead of a panic a -resume path that holds no
// checkpoint, or one in the MANIFEST layout of earlier versions.
func TestCheckpointResumeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	bin := buildCmds(t)
	run := func(binary string, args ...string) (string, error) {
		cmd := exec.Command(filepath.Join(bin, binary), args...)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	t.Run("edgetrainer", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpts")
		small := []string{"-epochs", "1", "-samples", "4", "-batch", "2"}
		out, err := run("edgetrainer", append([]string{"-checkpoint-dir", dir, "-checkpoint-every", "1"}, small...)...)
		if err != nil {
			t.Fatalf("checkpointed run failed: %v\n%s", err, out)
		}
		if !strings.Contains(out, "checkpointing to "+dir) {
			t.Fatalf("no checkpointing banner in:\n%s", out)
		}
		out, err = run("edgetrainer", append([]string{"-resume", dir}, small...)...)
		if err != nil {
			t.Fatalf("resumed run failed: %v\n%s", err, out)
		}
		if !strings.Contains(out, "resumed from "+dir) {
			t.Fatalf("no resume banner in:\n%s", out)
		}
	})

	t.Run("fleettrainer", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpts")
		small := []string{"-nodes", "2", "-rounds", "2", "-samples", "8"}
		out, err := run("fleettrainer", append([]string{"-checkpoint-dir", dir}, small...)...)
		if err != nil {
			t.Fatalf("checkpointed run failed: %v\n%s", err, out)
		}
		out, err = run("fleettrainer", append([]string{"-resume", dir}, small...)...)
		if err != nil {
			t.Fatalf("resumed run failed: %v\n%s", err, out)
		}
		if !strings.Contains(out, "resumed from "+dir+" at round 2") {
			t.Fatalf("no resume banner in:\n%s", out)
		}
	})

	// A -resume path without a checkpoint must be rejected up front with a
	// clear message (never a panic), for both binaries — including an
	// existing directory that was simply never checkpointed into.
	for _, binary := range []string{"edgetrainer", "fleettrainer"} {
		t.Run(binary+"-reject-missing-manifest", func(t *testing.T) {
			for _, dir := range []string{filepath.Join(t.TempDir(), "nonexistent"), t.TempDir()} {
				out, err := run(binary, "-resume", dir)
				if err == nil {
					t.Fatalf("%s -resume %s succeeded without a checkpoint:\n%s", binary, dir, out)
				}
				if strings.Contains(out, "panic") {
					t.Fatalf("%s -resume %s panicked:\n%s", binary, dir, out)
				}
				if !strings.Contains(out, "no checkpoint at") {
					t.Fatalf("%s -resume %s error is not descriptive:\n%s", binary, dir, out)
				}
			}
		})
	}

	// A directory in the MANIFEST layout of earlier versions is refused by
	// name, whether it is the -resume path or the -checkpoint-dir, and left
	// as it was.
	for _, binary := range []string{"edgetrainer", "fleettrainer"} {
		t.Run(binary+"-reject-manifest-layout", func(t *testing.T) {
			dir := t.TempDir()
			manifest := "edgetrain checkpoint manifest v1\nlatest ckpt-000001.ckpt\n"
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, args := range [][]string{{"-resume", dir}, {"-checkpoint-dir", dir}} {
				out, err := run(binary, args...)
				if err == nil {
					t.Fatalf("%s %v accepted a MANIFEST-layout directory:\n%s", binary, args, out)
				}
				if !strings.Contains(out, "MANIFEST layout") {
					t.Fatalf("%s %v did not refuse the layout by name:\n%s", binary, args, out)
				}
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
				t.Fatalf("refusing the directory changed it: %v, %v", entries, err)
			}
		})
	}
}

// TestTelemetrySmoke drives the fleet-wide telemetry pipeline end to end
// over TCP: a coordinator and two edgeworkers all run with -metrics-addr,
// so the workers serve their own /metrics and /healthz AND ship delta
// telemetry to the coordinator. The coordinator's scrape must then carry
// worker=-labeled series whose wire-byte totals match the printed report,
// and its /trace?format=chrome must be one stitched document with both
// workers' local-train spans nested inside the coordinator's round span.
// When EDGETRAIN_TRACE_OUT is set the stitched trace is written there (the
// CI workflow uploads it as an artifact).
func TestTelemetrySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	bin := buildCmds(t)

	coord := exec.Command(filepath.Join(bin, "edgecoord"),
		"-workers", "2", "-rounds", "3", "-samples", "8", "-quiet",
		"-metrics-addr", "127.0.0.1:0", "-metrics-linger", "1m")
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	sc := bufio.NewScanner(stdout)
	var mu sync.Mutex
	var coordOut bytes.Buffer
	var metricsAddr, addr string
	for sc.Scan() {
		line := sc.Text()
		coordOut.WriteString(line + "\n")
		if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
			metricsAddr = rest
		}
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			addr = rest
			break
		}
	}
	if metricsAddr == "" || addr == "" {
		t.Fatalf("coordinator never announced metrics + listen addresses:\n%s", coordOut.String())
	}
	base := "http://" + metricsAddr
	reported := make(chan struct{})
	go func() {
		closed := false
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			coordOut.WriteString(line + "\n")
			mu.Unlock()
			if !closed && strings.HasPrefix(line, "totals: ") {
				closed = true
				close(reported)
			}
		}
	}()

	// Workers with their own metrics servers; -metrics-linger keeps them
	// alive for a post-run scrape, so each is killed explicitly at the end.
	names := []string{"w0", "w1"}
	workerMetrics := make([]string, 2)
	outs := make([]bytes.Buffer, 2)
	for i := 0; i < 2; i++ {
		w := exec.Command(filepath.Join(bin, "edgeworker"),
			"-addr", addr, "-name", names[i], "-quiet",
			"-metrics-addr", "127.0.0.1:0", "-metrics-linger", "1m")
		wout, err := w.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		w.Stderr = &outs[i]
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Process.Kill()
		wsc := bufio.NewScanner(wout)
		for wsc.Scan() {
			line := wsc.Text()
			outs[i].WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
				workerMetrics[i] = rest
				break
			}
		}
		if workerMetrics[i] == "" {
			t.Fatalf("worker %s never announced its metrics address:\n%s", names[i], outs[i].String())
		}
		go func(i int) {
			for wsc.Scan() {
				mu.Lock()
				outs[i].WriteString(wsc.Text() + "\n")
				mu.Unlock()
			}
		}(i)
	}

	// Satellite check: each worker serves /metrics and /healthz while its
	// process is up (the training loop and the linger window).
	for i, wm := range workerMetrics {
		wbase := "http://" + wm
		if m := scrapeMetrics(t, wbase+"/metrics"); m == nil {
			t.Fatalf("worker %s /metrics unscrapable", names[i])
		}
		resp, err := http.Get(wbase + "/healthz")
		if err != nil {
			t.Fatalf("worker %s /healthz: %v", names[i], err)
		}
		var h struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil || (h.Status != "training" && h.Status != "done") {
			t.Fatalf("worker %s /healthz status = %q (err %v)", names[i], h.Status, err)
		}
	}

	select {
	case <-reported:
	case <-time.After(2 * time.Minute):
		mu.Lock()
		out := coordOut.String()
		mu.Unlock()
		t.Fatalf("coordinator never printed its totals line:\n%s", out)
	}

	// (a) The coordinator's scrape is the fleet-wide view: worker-labeled
	// series exist, and the per-worker committed wire bytes agree with the
	// report's worker rows.
	final := scrapeMetrics(t, base+"/metrics")
	mu.Lock()
	out := coordOut.String()
	mu.Unlock()
	for _, name := range names {
		tagged := 0
		for key := range final {
			if strings.Contains(key, `worker="`+name+`"`) {
				tagged++
			}
		}
		if tagged == 0 {
			t.Fatalf("no worker=%q-labeled series in the coordinator scrape:\n%v", name, final)
		}
		if got := final[`coord_worker_rounds_total{worker="`+name+`"}`]; got != 3 {
			t.Fatalf("coord_worker_rounds_total{worker=%q} = %v, want 3", name, got)
		}
		var reportWireMB float64
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, name+" ") {
				fields := strings.Fields(line)
				if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
					reportWireMB = v
				}
			}
		}
		if reportWireMB == 0 {
			t.Fatalf("no wire-MB report row for %s:\n%s", name, out)
		}
		got := final[`coord_worker_wire_bytes_total{worker="`+name+`"}`] / 1e6
		if math.Abs(got-reportWireMB) > 0.005 {
			t.Fatalf("coord_worker_wire_bytes_total{worker=%q} = %.4f MB, report row says %.2f MB",
				name, got, reportWireMB)
		}
	}
	if final["coord_telemetry_frames_total"] == 0 {
		t.Fatal("coordinator ingested no telemetry frames over TCP")
	}

	// (b) One stitched Chrome trace: both workers' local-train spans nested
	// inside the coordinator's round span for the same round.
	resp, err := http.Get(base + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	traceJSON, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if artifact := os.Getenv("EDGETRAIN_TRACE_OUT"); artifact != "" {
		if err := os.WriteFile(artifact, traceJSON, 0o644); err != nil {
			t.Fatalf("writing trace artifact: %v", err)
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON, &doc); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v", err)
	}
	lanes := map[int]string{}
	type spanT struct{ ts, end float64 }
	rounds := map[int]spanT{}         // round -> coordinator round span
	trains := map[int]map[int]spanT{} // round -> worker tid -> local-train span
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" && e.Name == "thread_name" {
			lanes[e.TID] = e.Args["name"].(string)
			continue
		}
		r := -1
		if v, ok := e.Args["round"].(float64); ok {
			r = int(v)
		}
		switch {
		case e.Name == "round" && e.TID == 0 && e.Phase == "X":
			rounds[r] = spanT{e.TS, e.TS + e.Dur}
		case e.Name == "local-train" && e.TID >= 1 && e.Phase == "X":
			if trains[r] == nil {
				trains[r] = map[int]spanT{}
			}
			trains[r][e.TID] = spanT{e.TS, e.TS + e.Dur}
		}
	}
	if lanes[0] != "coordinator" || lanes[1] != "w0" || lanes[2] != "w1" {
		t.Fatalf("stitched trace lanes = %v, want coordinator/w0/w1 on tids 0/1/2", lanes)
	}
	nested := false
	for r, rs := range rounds {
		tw := trains[r]
		if len(tw) < 2 {
			continue
		}
		for tid, ts := range tw {
			// Worker clocks run on the same host; allow a millisecond of
			// skew at the edges of the containment check.
			if ts.ts < rs.ts-1000 || ts.end > rs.end+1000 {
				t.Fatalf("round %d: local-train on tid %d [%.0f, %.0f]µs outside round span [%.0f, %.0f]µs",
					r, tid, ts.ts, ts.end, rs.ts, rs.end)
			}
		}
		nested = true
	}
	if !nested {
		t.Fatalf("no round has both workers' local-train spans (rounds %v, trains %v)", rounds, trains)
	}
}

// scrapeMetrics GETs a Prometheus text endpoint and returns the samples as a
// name{labels} -> value map. Comment and blank lines are skipped.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET %s: content type %q is not Prometheus text v0.0.4", url, ct)
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metric value in %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m
}

// TestMetricsSmoke runs the coordinator with -metrics-addr and verifies the
// observability endpoints against the live run: /metrics is scraped mid-run
// (the committed-round counter must advance past zero), /healthz and /trace
// and /debug/pprof/ must respond, and the final scrape — taken inside the
// -metrics-linger window after the report prints — must agree exactly with
// the report's round count and byte totals.
func TestMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	bin := buildCmds(t)

	coord := exec.Command(filepath.Join(bin, "edgecoord"),
		"-workers", "2", "-rounds", "3", "-samples", "8", "-quiet",
		"-metrics-addr", "127.0.0.1:0", "-metrics-linger", "1m")
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// The coordinator announces the metrics address first, then the
	// coordination port.
	sc := bufio.NewScanner(stdout)
	var mu sync.Mutex
	var coordOut bytes.Buffer
	var metricsAddr, addr string
	for sc.Scan() {
		line := sc.Text()
		coordOut.WriteString(line + "\n")
		if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
			metricsAddr = rest
		}
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			addr = rest
			break
		}
	}
	if metricsAddr == "" || addr == "" {
		t.Fatalf("coordinator never announced metrics + listen addresses:\n%s", coordOut.String())
	}
	base := "http://" + metricsAddr

	// Keep draining stdout; signal once the report's totals line lands.
	reported := make(chan struct{})
	go func() {
		closed := false
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			coordOut.WriteString(line + "\n")
			mu.Unlock()
			if !closed && strings.HasPrefix(line, "totals: ") {
				closed = true
				close(reported)
			}
		}
	}()

	workers := make(chan error, 2)
	outs := make([]bytes.Buffer, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			w := exec.Command(filepath.Join(bin, "edgeworker"),
				"-addr", addr, "-name", []string{"w0", "w1"}[i], "-quiet")
			w.Stdout = &outs[i]
			w.Stderr = &outs[i]
			workers <- w.Run()
		}(i)
	}

	// Mid-run: the committed-round counter must advance from its initial
	// zero while the run is still in flight.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if v := scrapeMetrics(t, base+"/metrics")["coord_rounds_committed_total"]; v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coord_rounds_committed_total never advanced past zero")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The sibling endpoints must be live while the run is in flight.
	for _, path := range []string{"/healthz", "/trace", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		switch path {
		case "/healthz":
			if !strings.Contains(string(body), `"rounds":3`) {
				t.Fatalf("/healthz does not report the configured rounds:\n%s", body)
			}
		case "/trace":
			if !strings.Contains(string(body), `"name":"round"`) {
				t.Fatalf("/trace holds no round span:\n%s", body)
			}
		}
	}

	for i := 0; i < 2; i++ {
		select {
		case err := <-workers:
			if err != nil {
				t.Fatalf("worker failed: %v\nw0: %s\nw1: %s", err, outs[0].String(), outs[1].String())
			}
		case <-time.After(2 * time.Minute):
			mu.Lock()
			out := coordOut.String()
			mu.Unlock()
			t.Fatalf("workers did not finish\ncoordinator so far:\n%s", out)
		}
	}
	select {
	case <-reported:
	case <-time.After(time.Minute):
		mu.Lock()
		out := coordOut.String()
		mu.Unlock()
		t.Fatalf("coordinator never printed its totals line:\n%s", out)
	}

	// Final scrape inside the linger window: scraped counters must agree
	// with the end-of-run report exactly.
	final := scrapeMetrics(t, base+"/metrics")
	mu.Lock()
	out := coordOut.String()
	mu.Unlock()
	var totals string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "totals: ") {
			totals = line
			break
		}
	}
	var upMB, downMB, wireMB, loss float64
	if _, err := fmt.Sscanf(totals, "totals: uplink %f MB, downlink %f MB, wire %f MB, final loss %f",
		&upMB, &downMB, &wireMB, &loss); err != nil {
		t.Fatalf("unparseable totals line %q: %v", totals, err)
	}
	if got := final["coord_rounds_committed_total"]; got != 3 {
		t.Fatalf("coord_rounds_committed_total = %v, want 3 (the report's round count)", got)
	}
	for metric, want := range map[string]float64{
		"coord_uplink_bytes_total":   upMB,
		"coord_downlink_bytes_total": downMB,
		"coord_wire_bytes_total":     wireMB,
	} {
		// The report prints MB to two decimals; the scrape is exact bytes.
		if got := final[metric] / 1e6; math.Abs(got-want) > 0.005 {
			t.Fatalf("%s = %.4f MB, report says %.2f MB:\n%s", metric, got, want, out)
		}
	}
	if !strings.Contains(out, "fleet training report: fedavg, 2 workers, 3 rounds") {
		t.Fatalf("missing or unexpected report header:\n%s", out)
	}
}
