// Package metrics is a deterministic metrics registry for the simulated
// runtime: counters, gauges, and histograms keyed by process image (and
// optionally by a peer image, for per-link fabric accounting).
//
// Determinism is the design constraint everything else follows from. The
// registry is fed from inside the discrete-event simulation, so equal
// seeds produce equal update sequences; the registry's job is to not
// spoil that on the way out. Snapshot and the two exporters therefore
// emit metric families sorted by name and samples sorted by (image,
// peer) — two runs with equal seeds export byte-identical JSON and
// Prometheus text.
//
// A nil *Registry (metrics disabled) is fully usable: every constructor
// returns a nil instrument and every instrument method on a nil receiver
// is a no-op, so instrumentation sites need no guards and add no
// behavior — the instrumented run stays bit-identical to an
// uninstrumented one.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"

	"caf2go/internal/sim"
)

// NoPeer is the Peer value of samples without a peer label.
const NoPeer = -1

// table is an instrument's samples: per image (a rank, ≥ 0), a cell per
// peer the image touched (NoPeer is a cell like any other), sorted by
// peer. A sample exists iff it was touched, updating one hashes nothing,
// and the export order (image, peer) is the storage order.
type table[V any] [][]cell[V]

type cell[V any] struct {
	peer int
	v    V
}

// at returns the (image, peer) sample, created zero when create is set
// and nil otherwise; the pointer is good until the row's next insert.
// The search is binary so that a row dense in peers (an all-to-all over
// 256 images) costs eight probes per packet, not a scan.
func (t *table[V]) at(image, peer int, create bool) *V {
	for create && len(*t) <= image {
		*t = append(*t, nil)
	}
	if image >= len(*t) {
		return nil
	}
	row := (*t)[image]
	lo, hi := 0, len(row)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); row[mid].peer < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(row) || row[lo].peer != peer {
		if !create {
			return nil
		}
		row = slices.Insert(row, lo, cell[V]{peer: peer})
		(*t)[image] = row
	}
	return &row[lo].v
}

// Registry holds the instruments of one machine.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns (creating on first use) the named counter. Returns nil
// on a nil registry; all Counter methods accept a nil receiver.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, help: help}
		r.counters[name] = c
	}
	return c
}

// Link returns a link instrument whose two columns export as the
// counters msgs and bytes.
func (r *Registry) Link(msgs, msgsHelp, bytes, bytesHelp string) *Link {
	if r == nil {
		return nil
	}
	l := &Link{}
	r.counters[msgs] = &Counter{name: msgs, help: msgsHelp, link: l}
	r.counters[bytes] = &Counter{name: bytes, help: bytesHelp, link: l, col: 1}
	return l
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, help: help}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name, help: help}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing per-key total.
type Counter struct {
	name, help string
	v          table[int64]
	link       *Link // set for a link's column: the samples are column col of its table, not v
	col        int
}

// Add increments the image's sample by d.
func (c *Counter) Add(image int, d int64) { c.AddLink(image, NoPeer, d) }

// AddLink increments the (image, peer) link sample by d.
func (c *Counter) AddLink(image, peer int, d int64) {
	if c == nil {
		return
	}
	*c.v.at(image, peer, true) += d
}

// Link counts packets and their bytes per (image, peer) link, two
// counters always updated together, in one table: a packet costs one
// search.
type Link struct{ v table[[2]int64] }

// Add counts one packet of n bytes on the (image, peer) link.
func (l *Link) Add(image, peer int, n int64) {
	if l != nil {
		s := l.v.at(image, peer, true)
		s[0], s[1] = s[0]+1, s[1]+n
	}
}

// Gauge is a per-key instantaneous value.
type Gauge struct {
	name, help string
	v          table[int64]
}

// Set stores v for the image.
func (g *Gauge) Set(image int, v int64) {
	if g == nil {
		return
	}
	*g.v.at(image, NoPeer, true) = v
}

// SetMax stores v for the image if it exceeds the current value (peak
// tracking, e.g. queue depth high-water marks).
func (g *Gauge) SetMax(image int, v int64) {
	if g == nil {
		return
	}
	// No new peak over an absent sample (it reads 0) creates nothing.
	if cur := g.v.at(image, NoPeer, v > 0); cur != nil && v > *cur {
		*cur = v
	}
}

// Histogram accumulates per-key observations into power-of-two buckets:
// bucket i counts observations v with bits.Len64(v) == i, i.e. upper
// bound 2^i - 1 (bucket 0 holds v ≤ 0). Exponential buckets keep the
// export compact and, being a pure function of the value, deterministic.
type Histogram struct {
	name, help string
	v          table[*histVals]
}

const numBuckets = 65 // bits.Len64 ranges over [0, 64]

type histVals struct {
	counts [numBuckets]int64
	sum    int64
	count  int64
}

// Observe records one value for the image.
func (h *Histogram) Observe(image int, v int64) {
	if h == nil {
		return
	}
	slot := h.v.at(image, NoPeer, true)
	if *slot == nil {
		*slot = &histVals{}
	}
	hv := *slot
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	hv.counts[b]++
	hv.sum += v
	hv.count++
}

// ObserveTime records a virtual duration in nanoseconds.
func (h *Histogram) ObserveTime(image int, d sim.Time) { h.Observe(image, int64(d)) }

// ---------------------------------------------------------------------
// Snapshot + exporters.
// ---------------------------------------------------------------------

// Sample is one counter or gauge value.
type Sample struct {
	Image int
	// Peer is the link peer, or -1 for samples without a peer label.
	Peer  int
	Value int64
}

// Bucket is one non-empty histogram bucket. Le is the bucket's inclusive
// upper bound (2^i - 1); Count is the plain (non-cumulative) count.
type Bucket struct {
	Le    int64
	Count int64
}

// HistSample is one histogram's per-key accumulation.
type HistSample struct {
	Image   int
	Peer    int
	Count   int64
	Sum     int64
	Buckets []Bucket
}

// Family is one named metric with all its samples.
type Family struct {
	Name string
	Help string `json:",omitempty"`
	// Type is "counter", "gauge", or "histogram".
	Type    string
	Samples []Sample     `json:",omitempty"`
	Hists   []HistSample `json:",omitempty"`
}

// Snapshot is a deterministic export of a registry: families sorted by
// name, samples by (image, peer). It is the Report.Metrics payload.
type Snapshot struct {
	Families []Family `json:",omitempty"`
}

// Snapshot captures the registry's current state. Safe on nil (returns
// an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if c, ok := r.counters[n]; ok {
			if c.link != nil {
				s.Families = append(s.Families, scalarFamily(n, c.help, "counter", c.link.v, func(v [2]int64) int64 { return v[c.col] }))
			} else {
				s.Families = append(s.Families, scalarFamily(n, c.help, "counter", c.v, self))
			}
			continue
		}
		if g, ok := r.gauges[n]; ok {
			s.Families = append(s.Families, scalarFamily(n, g.help, "gauge", g.v, self))
			continue
		}
		h := r.hists[n]
		f := Family{Name: n, Help: h.help, Type: "histogram"}
		for image, row := range h.v {
			for _, c := range row {
				hs := HistSample{Image: image, Peer: c.peer, Count: c.v.count, Sum: c.v.sum}
				for b, cnt := range c.v.counts {
					if cnt == 0 {
						continue
					}
					le := int64(math.MaxInt64)
					if b < 63 {
						le = 1<<uint(b) - 1
					}
					hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: cnt})
				}
				f.Hists = append(f.Hists, hs)
			}
		}
		s.Families = append(s.Families, f)
	}
	return s
}

// scalarFamily exports a counter's or gauge's samples, each value(v).
func scalarFamily[V any](name, help, typ string, v table[V], value func(V) int64) Family {
	f := Family{Name: name, Help: help, Type: typ}
	for image, row := range v {
		for _, c := range row {
			f.Samples = append(f.Samples, Sample{Image: image, Peer: c.peer, Value: value(c.v)})
		}
	}
	return f
}

func self(v int64) int64 { return v }

// WriteJSON emits the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format (version 0.0.4). Histogram buckets are emitted cumulatively
// with power-of-two le bounds, as the format requires.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, f := range s.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, smp := range f.Samples {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.Name, promLabels(smp.Image, smp.Peer, ""), smp.Value); err != nil {
				return err
			}
		}
		for _, hs := range f.Hists {
			cum := int64(0)
			for _, b := range hs.Buckets {
				if b.Le == math.MaxInt64 {
					// Folded into the +Inf bucket below.
					continue
				}
				cum += b.Count
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name,
					promLabels(hs.Image, hs.Peer, fmt.Sprintf("%d", b.Le)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, promLabels(hs.Image, hs.Peer, "+Inf"), hs.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.Name, promLabels(hs.Image, hs.Peer, ""), hs.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, promLabels(hs.Image, hs.Peer, ""), hs.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLabels renders the {image="..",peer="..",le=".."} label set.
func promLabels(image, peer int, le string) string {
	s := fmt.Sprintf(`{image="%d"`, image)
	if peer != NoPeer {
		s += fmt.Sprintf(`,peer="%d"`, peer)
	}
	if le != "" {
		s += fmt.Sprintf(`,le="%s"`, le)
	}
	return s + "}"
}
