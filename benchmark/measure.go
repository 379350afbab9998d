package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quartiles returns Q1, the median and Q3 by the rule Python's
// statistics.quantiles(values, n=4) uses, so spreads computed here and by
// whoever checks the benchmark agree. A single value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// iqrFrac is the run's own noise reading: the interquartile range of the
// values as a share of their median.
func iqrFrac(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// allocCounters reads the allocator's cumulative object and byte counts.
func allocCounters() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so that the next peakRSSMB reads the peak of what
// ran in between. Where /proc/self/clear_refs cannot be written the mark
// keeps rising and every reading is the peak since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// gcCounters reads cumulative GC CPU seconds, total process CPU seconds
// as the runtime accounts them, and completed GC cycles.
func gcCounters() (gcCPU, totalCPU float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		cycles = s[2].Value.Uint64()
	}
	return gcCPU, totalCPU, cycles
}

// goroutineSampler records the peak goroutine count every 10 ms until
// stopped. Used only around the profiled reps, whose timings are never
// reported as end-to-end.
type goroutineSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int
}

func startGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > s.peak {
				s.peak = n
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak once the sampler has exited.
func (s *goroutineSampler) Stop() int {
	close(s.stop)
	<-s.done
	return s.peak
}

// A span is one timed interval of the benchmark's own control flow —
// run → setup[i] / rep[i] → generate / simulate / verify, and one per
// probe — recorded around the calls into the program, kept in memory and
// written out when the run ends.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Name    string  `json:"name"`
	StartS  float64 `json:"start_s"` // seconds since process start
	EndS    float64 `json:"end_s"`
	started time.Time
}

type spanLog struct {
	epoch time.Time
	spans []*span
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

// start opens a span under parent (nil for the root).
func (l *spanLog) start(parent *span, name string) *span {
	s := &span{ID: len(l.spans) + 1, Name: name, started: time.Now()}
	if parent != nil {
		s.Parent = parent.ID
	}
	s.StartS = s.started.Sub(l.epoch).Seconds()
	l.spans = append(l.spans, s)
	return s
}

// end closes the span and returns its duration.
func (l *spanLog) end(s *span) time.Duration {
	d := time.Since(s.started)
	s.EndS = s.StartS + d.Seconds()
	return d
}
