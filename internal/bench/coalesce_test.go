package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestCoalesceSweep is the benchmark-regression gate: at 64 images the
// RandomAccess function-shipping traffic must send at least 2x fewer
// wire packets with coalescing on, at unchanged results, and the run
// must be faster, not slower.
func TestCoalesceSweep(t *testing.T) {
	o := DefaultCoalesce()
	rep, err := Coalesce(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Rows); got != 2*(len(o.Cores)+len(o.Fig12Cores)) {
		t.Fatalf("rows = %d, want %d", got, 2*(len(o.Cores)+len(o.Fig12Cores)))
	}

	if red := rep.MsgReduction["randomaccess-fs"]; red < 2.0 {
		t.Errorf("RA message reduction at %d images = %.2fx, want >= 2x", o.Cores[len(o.Cores)-1], red)
	}
	if sp := rep.Speedup["randomaccess-fs"]; sp <= 1.0 {
		t.Errorf("RA speedup = %.2fx, want > 1x — coalescing made RandomAccess slower", sp)
	}

	for _, row := range rep.Rows {
		if !row.Coalesced {
			if row.MsgsCoalesced != 0 || row.Flushes != 0 {
				t.Errorf("%s p=%d uncoalesced row has coalescing counters: %+v", row.Workload, row.Images, row)
			}
			continue
		}
		if row.Workload == "randomaccess-fs" && row.MsgsCoalesced == 0 {
			t.Errorf("%s p=%d coalesced row batched nothing", row.Workload, row.Images)
		}
		if row.Flushes != row.FlushBySize+row.FlushByTimer+row.FlushByBarrier {
			t.Errorf("%s p=%d flush counters don't add up: %+v", row.Workload, row.Images, row)
		}
	}
}

// TestCoalesceSweepDeterministic: the whole sweep is a pure function of
// its options — rerunning must reproduce every row bit-for-bit (the
// property that makes results/sweeps.json a committable artifact).
func TestCoalesceSweepDeterministic(t *testing.T) {
	o := DefaultCoalesce()
	a, err := Coalesce(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Coalesce(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sweeps diverged:\n 1st: %+v\n 2nd: %+v", a, b)
	}
}

// TestCoalesceReportJSONRoundTrips: the artifact's coalescing section
// encodes and decodes cleanly (guards the field shape the tutorial
// documents).
func TestCoalesceReportJSONRoundTrips(t *testing.T) {
	o := DefaultCoalesce()
	o.Cores = o.Cores[:1]
	o.Fig12Cores = nil
	rep, err := Coalesce(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (Sweeps{Coalesce: rep}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Sweeps
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back.Coalesce) {
		t.Errorf("JSON round trip changed the report:\n out: %+v\n back: %+v", rep, back.Coalesce)
	}
}

// TestSweepOptsOwnTheirFields: the options of the coalescing and load
// sweeps, which results/sweeps.json records, hold only values of their
// own: no field, nor a field of a field, is a struct of another package
// (caf.Coalescing was one), so a setting added to the fabric cannot enter
// the committed document unasked.
func TestSweepOptsOwnTheirFields(t *testing.T) {
	var check func(owner string, typ reflect.Type)
	check = func(owner string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			ft := f.Type
			for ft.Kind() == reflect.Slice || ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() != reflect.Struct {
				continue
			}
			if ft.PkgPath() != typ.PkgPath() {
				t.Errorf("%s.%s is a %s, a struct of another package", owner, f.Name, ft)
				continue
			}
			check(owner+"."+f.Name, ft)
		}
	}
	check("CoalesceOpts", reflect.TypeOf(CoalesceOpts{}))
	check("LoadOpts", reflect.TypeOf(LoadOpts{}))
}
