package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRegistryMatchesResults: every committed file under results/ has a
// generator, and every output has a committed file.
func TestRegistryMatchesResults(t *testing.T) {
	entries, err := os.ReadDir("../../results")
	if err != nil {
		t.Fatal(err)
	}
	var committed, registered []string
	for _, e := range entries {
		committed = append(committed, e.Name())
	}
	for _, o := range outputs {
		registered = append(registered, o.file)
	}
	sort.Strings(registered)
	if strings.Join(committed, " ") != strings.Join(registered, " ") {
		t.Fatalf("results/ holds %v, the registry writes %v", committed, registered)
	}
}

// TestCheck runs -check on a copy of two committed files: it passes on
// the copy as committed, and fails naming each file once one byte of one
// is flipped and the other is deleted.
func TestCheck(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // a failed check keeps its regenerated copies
	dir := t.TempDir()
	for _, f := range []string{"fig2-3.tsv", "sweeps.json"} {
		b, err := os.ReadFile(filepath.Join("../../results", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	args := []string{"-check", "-only", "fig2-3,sweeps", "-out", dir}
	var stderr bytes.Buffer
	if code := run(args, &stderr); code != 0 {
		t.Fatalf("check of the committed files: exit %d\n%s", code, stderr.String())
	}

	fig := filepath.Join(dir, "fig2-3.tsv")
	b, err := os.ReadFile(fig)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(fig, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "sweeps.json")); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run(args, &stderr); code != 1 {
		t.Fatalf("check after a flipped byte and a deleted file: exit %d, want 1\n%s", code, stderr.String())
	}
	for _, want := range []string{"fig2-3.tsv differs", "sweeps.json is missing", "2 of 2 files"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr does not say %q:\n%s", want, stderr.String())
		}
	}
}

// TestUnknownOutput: an unknown -only name is a usage error that lists
// the valid names.
func TestUnknownOutput(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-only", "fig2-3,fig15"}, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stderr.String())
	}
	for _, o := range outputs {
		if !strings.Contains(stderr.String(), o.name) {
			t.Errorf("stderr does not list %s:\n%s", o.name, stderr.String())
		}
	}
}
