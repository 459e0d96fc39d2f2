package fairmove

// End-to-end service smoke (make serve-smoke): build the real binaries,
// start `fairmove serve` on a free port, stream two slots of recorded events
// through `datagen stream`, assert the served decision digest is the one the
// batch engine computes in-process, then SIGTERM the service and require a
// clean drain. This is the one test that exercises the shipped artifacts —
// flag parsing, signal handling, process lifecycle — rather than the
// packages behind them.

import (
	"bufio"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
)

func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke: run via make serve-smoke (part of make ci)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	bin := t.TempDir()
	fairmoveBin := filepath.Join(bin, "fairmove")
	datagenBin := filepath.Join(bin, "datagen")
	for target, pkg := range map[string]string{fairmoveBin: "./cmd/fairmove", datagenBin: "./cmd/datagen"} {
		if out, err := exec.CommandContext(ctx, "go", "build", "-o", target, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	// The in-process batch computation of what the service must serve:
	// two slots of GT decisions on the identical (city, seed, options).
	const seed, fleet, slots = 42, 24, 2
	cfg := DefaultConfig(seed)
	cfg.Fleet = fleet
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := policy.NewRunner(policy.NewGroundTruth(), sys.EvalEnv(), sys.EvalSeed())
	var batch []policy.Decision
	for i := 0; i < slots; i++ {
		batch = append(batch, append([]policy.Decision(nil), r.StepSlot()...)...)
	}
	want := serve.DigestDecisions(batch)

	srv := exec.CommandContext(ctx, fairmoveBin, "serve", "-fleet", "24", "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = srv.Stdout // interleave; the smoke greps both
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// First line: "fairmove serve: listening on http://HOST:PORT (...)".
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("service printed nothing: %v", sc.Err())
	}
	first := sc.Text()
	i := strings.Index(first, "http://")
	if i < 0 {
		t.Fatalf("no listen address in %q", first)
	}
	url := strings.Fields(first[i:])[0]
	var rest strings.Builder
	var restWG sync.WaitGroup
	restWG.Add(1)
	go func() {
		defer restWG.Done()
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
	}()

	// Stream two slots of events through the real datagen binary.
	if out, err := exec.CommandContext(ctx, datagenBin, "stream",
		"-url", url, "-fleet", "24", "-slots", "2", "-digest").CombinedOutput(); err != nil {
		t.Fatalf("datagen stream: %v\n%s", err, out)
	}

	// Ingest is asynchronous past admission: poll until both slots closed.
	client := &serve.Client{URL: url}
	deadline := time.Now().Add(30 * time.Second)
	for {
		gotSlots, _, digest, err := client.Digest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if gotSlots >= slots {
			if gotSlots != slots {
				t.Fatalf("served %d slots, streamed exactly %d", gotSlots, slots)
			}
			if digest != want {
				t.Fatalf("served digest %s, batch engine computes %s", digest, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service stuck at %d/%d slots", gotSlots, slots)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Clean SIGTERM drain: exit 0 and the drain banner with the same digest.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Read the output to EOF before Wait: Wait closes the pipe, and output
	// still unread at that moment is lost.
	restWG.Wait()
	if err := srv.Wait(); err != nil {
		t.Fatalf("service exited dirty on SIGTERM: %v\n%s", err, rest.String())
	}
	out := rest.String()
	if !strings.Contains(out, "draining") {
		t.Fatalf("no drain banner in output:\n%s", out)
	}
	if !strings.Contains(out, "drained cleanly") {
		t.Fatalf("no clean-drain confirmation in output:\n%s", out)
	}
	if !strings.Contains(out, want) {
		t.Fatalf("drain summary does not carry the decision digest %s:\n%s", want, out)
	}
}
