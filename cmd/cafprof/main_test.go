package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	caf "caf2go"
	"caf2go/examples/workloads"
	"caf2go/internal/prof"
)

// TestCorruptInputs pins the CLI contract on bad profiles: a nonzero
// exit code and a diagnostic on stderr, never a panic or a silently
// empty report.
func TestCorruptInputs(t *testing.T) {
	cases := []struct {
		name    string
		content string
	}{
		{"empty file", ""},
		{"json null", "null"},
		{"empty object", "{}"},
		{"truncated object", `{"Images": 4, "Duration": 123`},
		{"wrong type", `{"Images": "four"}`},
		{"negative images", `{"Images": -1}`},
		{"array not object", `[1, 2, 3]`},
		{"binary garbage", "\x00\x01\x02\xff\xfe"},
		{"span its own ancestor", `{"Images": 1, "Paths": {"Reqs": [{"Seq": 0, "Done": -1,
			"Spans": [{"ID": 1, "Parent": 0}, {"ID": 1, "Parent": 1}]}]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := filepath.Join(t.TempDir(), "prof.json")
			if err := os.WriteFile(f, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, args := range [][]string{{f}, {"paths", f}, {"tail", f}} {
				var stdout, stderr bytes.Buffer
				code := run(args, &stdout, &stderr)
				if code == 0 {
					t.Errorf("args %v: exit code 0 on corrupt input, stdout %q", args, stdout.String())
				}
				if !strings.Contains(stderr.String(), "cafprof:") {
					t.Errorf("args %v: no diagnostic on stderr, got %q", args, stderr.String())
				}
				if stdout.Len() != 0 {
					t.Errorf("args %v: unexpected report on stdout: %q", args, stdout.String())
				}
			}
		})
	}
}

// TestMissingFile pins the same contract for a nonexistent path.
func TestMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{filepath.Join(t.TempDir(), "nope.json")}, &stdout, &stderr); code == 0 {
		t.Fatal("exit code 0 for a missing file")
	}
}

// TestBadUsage pins exit code 2 for malformed invocations.
func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"a.json", "b.json"}, {"frobnicate", "a.json"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

// TestValidProfile sanity-checks the happy path end to end: a profile
// with path data renders all three views with exit code 0.
func TestValidProfile(t *testing.T) {
	const doc = `{
		"Images": 2,
		"Duration": 1000,
		"Paths": {
			"Buckets": ["client_queue", "coalesce_hold", "wire", "credit_stall",
				"lock_wait", "handler_service", "repl_mirror", "epoch_stall", "replay_reissue"],
			"Reqs": [{
				"Seq": 0, "Client": 1, "Scheduled": 100, "Done": 400, "Aborted": false,
				"Buckets": [10, 0, 90, 0, 150, 50, 0, 0, 0], "Replays": 0,
				"Spans": [{"ID": 1, "Req": 0, "Parent": 0, "Kind": "lock", "Img": 1, "Peer": 0,
					"T": [110, 260, 260, 260]}]
			}]
		}
	}`
	f := filepath.Join(t.TempDir(), "prof.json")
	if err := os.WriteFile(f, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{f}, {"paths", f}, {"tail", f}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("args %v: exit %d, stderr %q", args, code, stderr.String())
		}
		if args[0] == "tail" && !strings.Contains(stdout.String(), "lock_wait") {
			t.Errorf("tail view does not name the dominant bucket: %q", stdout.String())
		}
	}
}

// TestRealProfile renders the profile a traced run wrote: the kv-locks
// service with metrics, lifecycle tracing and path tracing on. Every view
// must exit 0 with output, -json must re-emit the run's own profile, and
// the tail view must blame lock wait, which dominates that protocol's
// slowest requests.
func TestRealProfile(t *testing.T) {
	var m *caf.Machine
	_, err := workloads.KVService(
		caf.Config{Images: 8, Seed: 11, Metrics: true, TraceCapacity: 1 << 16, PathTracing: true},
		workloads.ServiceOpts{Requests: 240, Rate: 240_000, WriteFrac: 0.5},
		workloads.CaptureMachine(&m))
	if err != nil {
		t.Fatal(err)
	}
	f := filepath.Join(t.TempDir(), "prof.json")
	out, err := os.Create(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteProfile(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{f}, {"-metrics", f}, {"-json", f}, {"paths", f}, {"tail", f}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 || stdout.Len() == 0 {
			t.Fatalf("args %v: exit %d with %d bytes of output, stderr %q", args, code, stdout.Len(), stderr.String())
		}
		switch args[0] {
		case "-json":
			back, err := prof.Read(&stdout)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, m.Profile()) {
				t.Error("-json does not re-emit the run's profile")
			}
		case "tail":
			if !strings.Contains(stdout.String(), "lock_wait") {
				t.Errorf("tail view does not name lock_wait: %q", stdout.String())
			}
		}
	}
}
