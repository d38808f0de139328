package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadQueryBuiltin(t *testing.T) {
	name, src, c, err := loadQuery("top1", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if name != "top1" || src == "" || c != 1<<15 {
		t.Errorf("loadQuery(top1) = %q, %d", name, c)
	}
	// Category override.
	_, _, c, err = loadQuery("top1", "", 128)
	if err != nil || c != 128 {
		t.Errorf("category override: c=%d err=%v", c, err)
	}
	if _, _, _, err := loadQuery("nope", "", 0); err == nil {
		t.Error("unknown query accepted")
	}
	if _, _, _, err := loadQuery("", "", 0); err == nil {
		t.Error("missing query and file accepted")
	}
}

func TestLoadQueryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.txt")
	if err := os.WriteFile(path, []byte("output(1);"), 0o644); err != nil {
		t.Fatal(err)
	}
	name, src, c, err := loadQuery("", path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if name != path || src != "output(1);" || c != 1 {
		t.Errorf("loadQuery(file) = %q %q %d", name, src, c)
	}
	if _, _, _, err := loadQuery("", "/no/such/file", 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPlanCmd(t *testing.T) {
	if err := planCmd([]string{"-query", "cms", "-n", "1048576"}); err != nil {
		t.Fatal(err)
	}
	if err := planCmd([]string{"-query", "cms", "-goal", "bogus"}); err == nil {
		t.Error("bogus goal accepted")
	}
}

func TestExplainCmd(t *testing.T) {
	if err := explainCmd([]string{"-query", "cms", "-n", "1048576", "-dim", "noise"}); err != nil {
		t.Fatal(err)
	}
	if err := explainCmd([]string{"-query", "cms", "-dim", "bogus"}); err == nil {
		t.Error("bogus dimension accepted")
	}
}

func TestPlanCmdJSON(t *testing.T) {
	if err := planCmd([]string{"-query", "cms", "-n", "1048576", "-json"}); err != nil {
		t.Fatal(err)
	}
}

// captureRun runs runCmd with stdout redirected to a pipe and returns
// everything it printed, plus the command error.
func captureRun(t *testing.T, args []string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	runErr := runCmd(args)
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRunCmdFaultReplayDeterminism is the CLI half of the fault-injection
// determinism contract: the same -seed and -faults spec must print a
// byte-identical transcript (outputs, fault schedule, fired-fault log, and
// recovery summary) on every invocation, so an operator can replay a chaos
// run from nothing but the two flags. The schedule forces a crash of shard
// 1, exercising checkpoint resume + Merkle audit end to end.
func TestRunCmdFaultReplayDeterminism(t *testing.T) {
	path := filepath.Join(t.TempDir(), "count.txt")
	q := "aggr = sum(db);\nnoised = laplace(aggr[0], 5.0);\noutput(declassify(noised));\n"
	if err := os.WriteFile(path, []byte(q), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-file", path, "-categories", "4",
		"-devices", "48", "-committee", "5", "-seed", "7",
		"-faults", "seed=7,upload=0.1,shard@1",
	}
	first, err := captureRun(t, args)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if !strings.Contains(first, "fault plan:") || !strings.Contains(first, "recovery:") {
		t.Errorf("report missing plan/recovery sections:\n%s", first)
	}
	if !strings.Contains(first, "fault shard[1") {
		t.Errorf("forced crash of shard 1 not in fired log:\n%s", first)
	}
	if !strings.Contains(first, "1 shard crashes (1 resumes)") {
		t.Errorf("crash-then-resume not reflected in recovery summary:\n%s", first)
	}
	second, err := captureRun(t, args)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if first != second {
		t.Errorf("replay diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

func TestRunCmdBadFaultSpec(t *testing.T) {
	if _, err := captureRun(t, []string{"-query", "top1", "-faults", "bogus=1"}); err == nil {
		t.Error("bogus fault spec accepted")
	}
}

// TestRunCmdStreamMatchesLegacy is the CLI half of the ingest equivalence
// contract (docs/INGEST.md): at the same seed, `run` prints the transcript
// the deleted materialize-and-audit path printed — recorded here from the
// commit before that deletion, for a plain and a sampled query — at the
// default shape and at any shard/batch/worker shape, and a forced shard crash
// recovers from its batch checkpoint without changing it. The sampled
// query's released values are still that recording; top1's output was
// re-captured (0 → 2) when `run` began executing the plan it makes — Gumbel
// em at this shape — instead of the exponentiate variant a plan-less run
// defaulted to, and both transcripts gained the executed plan's choices line.
func TestRunCmdStreamMatchesLegacy(t *testing.T) {
	const (
		top1 = "accepted inputs: 48\ncharged ε: 0.1\n" +
			"choices: map[em:gumbel-noise-4-tree-12 input:onehot+zkp output:committee-reconstruct sum:aggregator-loop]\n" +
			"output[0] = 2\n"
		secrecy = "accepted inputs: 64\ncharged ε: 0.01704\n" +
			"choices: map[compute:committee-slice-1 input:onehot+zkp noise:committee-slice-1 output:committee-reconstruct sample:bin-window sum:aggregator-loop]\n" +
			"output[0] = 200\noutput[1] = -1800\noutput[2] = 2200\noutput[3] = 1\n"
	)
	for _, tc := range []struct {
		base   []string
		legacy string
	}{
		{[]string{"-query", "top1", "-devices", "48", "-committee", "5", "-seed", "7"}, top1},
		{[]string{"-query", "secrecy", "-devices", "64", "-seed", "3"}, secrecy},
	} {
		for _, extra := range [][]string{
			nil,
			{"-ingest-shards", "3", "-ingest-batch", "5", "-workers", "4"},
		} {
			got, err := captureRun(t, append(append([]string{}, tc.base...), extra...))
			if err != nil {
				t.Fatalf("run %v %v: %v", tc.base, extra, err)
			}
			if got != tc.legacy {
				t.Errorf("transcript %v %v diverged from legacy:\n--- legacy ---\n%s\n--- got ---\n%s", tc.base, extra, tc.legacy, got)
			}
		}
	}
	crashed, err := captureRun(t, []string{"-query", "top1", "-devices", "48", "-committee", "5", "-seed", "7",
		"-ingest-batch", "8", "-faults", "seed=7,shard@1"})
	if err != nil {
		t.Fatalf("run with forced shard crash: %v", err)
	}
	if !strings.Contains(crashed, "fault shard[1") {
		t.Errorf("forced shard crash not in fired log:\n%s", crashed)
	}
	if !strings.Contains(crashed, "1 shard crashes (1 resumes)") {
		t.Errorf("shard crash-then-resume not in recovery summary:\n%s", crashed)
	}
	if !strings.HasSuffix(crashed, top1) {
		t.Errorf("recovered run released a different transcript:\n%s", crashed)
	}
}
