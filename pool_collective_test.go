package caf

import "testing"

// What a collective allocates on a one-image machine, untraced and warm.
// A blocking collective keeps no record of its own: its lifecycle op
// exists only under a tracker, and it brackets the call with values, so
// a Barrier allocates nothing and an Allreduce its result. An
// asynchronous one is its Collective record, which holds its Op, its
// collect.Handle and its cofence registration; an AllreduceAsync also
// allocates its result, a slice the Handle keeps unboxed until Result.
func TestPoolCollectiveAllocs(t *testing.T) {
	skipUnlessPinned(t)
	vec := []int64{1, 2}
	rows := []struct {
		name string
		want float64
		call func(img *Image)
	}{
		{"Barrier", 0, func(img *Image) { img.Barrier(nil) }},
		{"Allreduce", 1, func(img *Image) { img.Allreduce(nil, Sum, vec) }},
		{"BarrierAsync+WaitLocalOp", 1, func(img *Image) { img.BarrierAsync(nil).WaitLocalOp() }},
		{"AllreduceAsync+WaitLocalOp", 2, func(img *Image) { img.AllreduceAsync(nil, Sum, vec).WaitLocalOp() }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var allocs float64
			_, err := Run(Config{Images: 1, Seed: 1}, func(img *Image) {
				allocs = testing.AllocsPerRun(100, func() { row.call(img) })
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v allocations per %s", allocs, row.name)
			if allocs > row.want {
				t.Errorf("allocations per %s = %v, want ≤ %v", row.name, allocs, row.want)
			}
		})
	}
}
