package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke builds ddgms and runs every workload, untraced and traced,
// for two seconds each with every correctness check on. It takes a few
// minutes (the 16× cohort is generated once and cached under
// .bench_build); -short skips it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes minutes; skipped with -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	build := exec.Command("go", "build", "-o", filepath.Join(root, ".bench_build", "bin", "ddgms"), "./cmd/ddgms")
	build.Dir, build.Stdout, build.Stderr = root, os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building ddgms: %v", err)
	}
	if code := runSmoke(root, 1, 2); code != 0 {
		t.Fatalf("smoke run failed (exit %d); see the log above", code)
	}
}
