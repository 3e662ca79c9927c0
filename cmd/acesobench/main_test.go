package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "acesobench-cli")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "acesobench")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestBenchFig1(t *testing.T) {
	out, err := exec.Command(binPath, "fig1").CombinedOutput()
	if err != nil {
		t.Fatalf("fig1 failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Figure 1") {
		t.Errorf("output:\n%s", out)
	}
}

func TestBenchFig7WithCSV(t *testing.T) {
	dir := t.TempDir()
	out, err := exec.Command(binPath,
		"-budget", "200ms", "-sizes", "1", "-csv", dir, "fig7", "cases").CombinedOutput()
	if err != nil {
		t.Fatalf("fig7 failed: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "Figure 7") || !strings.Contains(s, "case studies") {
		t.Errorf("output:\n%s", s)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "e2e.csv"))
	if err != nil {
		t.Fatalf("e2e.csv missing: %v", err)
	}
	if !strings.Contains(string(csv), "family,size,gpus") {
		t.Errorf("csv header missing:\n%s", csv)
	}
}

func TestBenchFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10's DP comparator is deliberately expensive")
	}
	out, err := exec.Command(binPath, "-budget", "200ms", "fig10").CombinedOutput()
	if err != nil {
		t.Fatalf("fig10 failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Figure 10") {
		t.Errorf("output:\n%s", out)
	}
}

func TestUnknownTargetFails(t *testing.T) {
	out, err := exec.Command(binPath, "fig1", "nosuch").CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("unknown target: err %v, want a non-zero exit\n%s", err, out)
	}
	s := string(out)
	if strings.Contains(s, "Figure 1") {
		t.Errorf("ran targets despite an unknown name:\n%s", s)
	}
	for _, name := range []string{`"nosuch"`, "all", "fig1", "search", "smoke"} {
		if !strings.Contains(s, name) {
			t.Errorf("error does not mention %s:\n%s", name, s)
		}
	}
}

func TestTargetTable(t *testing.T) {
	seen := map[string]bool{"all": true}
	var smoke []string
	for _, tg := range targets() {
		if seen[tg.name] {
			t.Errorf("target %q defined twice (or shadows all)", tg.name)
		}
		seen[tg.name] = true
		if tg.doc == "" || tg.run == nil {
			t.Errorf("target %q lacks a doc line or a run function", tg.name)
		}
		if tg.inAll && tg.inSmoke {
			t.Errorf("target %q is both a paper experiment and a CI gate", tg.name)
		}
		if tg.inSmoke {
			smoke = append(smoke, tg.name)
		}
	}
	sort.Strings(smoke)
	want := []string{"chaos", "churn", "diff", "hetero", "search", "trace"}
	if strings.Join(smoke, " ") != strings.Join(want, " ") {
		t.Errorf("smoke runs %v, want %v", smoke, want)
	}
}

func TestSelectTargets(t *testing.T) {
	rows := targets()
	names := func(args ...string) string {
		sel, err := selectTargets(rows, args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var out []string
		for _, tg := range sel {
			out = append(out, tg.name)
		}
		return strings.Join(out, " ")
	}
	// Table order, not argument order; duplicates collapse.
	if got := names("churn", "fig1", "churn"); got != "fig1 churn" {
		t.Errorf("selected %q, want %q", got, "fig1 churn")
	}
	all := names()
	if all != names("all") || strings.Contains(all, "search") || !strings.Contains(all, "fig16") {
		t.Errorf("default selection %q is not the paper's evaluation", all)
	}
	if got := names("all", "scale"); got != all+" scale" {
		t.Errorf("all + scale selected %q", got)
	}
}

func TestSevenFlags(t *testing.T) {
	out, _ := exec.Command(binPath, "-h").CombinedOutput()
	var flags []string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(line, "  -") {
			flags = append(flags, f[0])
		}
	}
	sort.Strings(flags)
	want := "-budget -chaos-duration -cpuprofile -csv -memprofile -seed -sizes"
	if got := strings.Join(flags, " "); got != want {
		t.Errorf("flags %q, want %q", got, want)
	}
	for _, tg := range targets() {
		if !strings.Contains(string(out), tg.doc) {
			t.Errorf("-h does not document target %q", tg.name)
		}
	}
}
