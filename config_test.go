package caf_test

import (
	"reflect"
	"slices"
	"testing"

	caf "caf2go"
)

// TestConfigSurface lists every value a program can set on a machine: the
// leaves of caf.Config, reached through its struct and pointer-to-struct
// fields. A change that adds, removes or renames a setting edits this
// list, so the configuration surface shows up in review as a diff.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Fabric.AMOverhead",
		"Fabric.Coalescing.FlushAfter",
		"Fabric.Coalescing.MaxBytes",
		"Fabric.Coalescing.MaxMsgs",
		"Fabric.Credits",
		"Fabric.Faults.Crash",
		"Fabric.Faults.Drop",
		"Fabric.Faults.Dup",
		"Fabric.Faults.Jitter",
		"Fabric.Faults.Seed",
		"Fabric.Faults.Stall",
		"Fabric.Faults.StallProb",
		"Fabric.GapPerByte",
		"Fabric.ImagesPerNode",
		"Fabric.Latency",
		"Fabric.MaxMedium",
		"Fabric.SelfLatency",
		"Fabric.StallPenalty",
		"FailureDetector.Enabled",
		"FailureDetector.Heartbeat",
		"FailureDetector.Lease",
		"FinishNoWait",
		"Images",
		"MaxDelayed",
		"Metrics",
		"PathTracing",
		"Races",
		"Relaxed",
		"Replication.Enabled",
		"Seed",
		"TraceCapacity",
	}
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			ft := f.Type
			if ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", ft)
				continue
			}
			got = append(got, prefix+f.Name)
		}
	}
	walk("", reflect.TypeOf(caf.Config{}))
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("caf.Config settings changed:\n got %d %q\nwant %d %q", len(got), got, len(want), want)
	}
}
