package caf

import (
	"fmt"

	"caf2go/internal/fabric"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// flushTracer records one trace instant per coalescing flush, attributed
// to the flushing (source) image. Installed by NewMachine when both
// tracing and coalescing are enabled.
type flushTracer struct {
	tr *trace.Recorder
}

var _ fabric.FlushObserver = (*flushTracer)(nil)

func (ft *flushTracer) CoalesceFlush(src, dst, msgs, bytes int, reason fabric.FlushReason, now sim.Time) {
	// A full recorder counts the drop without the label being formatted.
	if !ft.tr.Admit("fabric") {
		return
	}
	ft.tr.Instant(src, 0,
		fmt.Sprintf("coalesce-flush(%s) %d msgs/%dB -> img%d", reason, msgs, bytes, dst),
		"fabric", now)
}
