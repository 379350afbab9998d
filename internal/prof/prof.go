// Package prof turns the observability layer's raw captures — operation
// lifecycles, blocked intervals, finish detection rounds, and the metrics
// snapshot — into a serializable Profile plus the derived analyses the
// cafprof CLI renders: per-stage latency histograms over the paper's
// Fig. 1 completion levels, a blocked-time "top blockers" table that
// names the operations whose progress released each park, a per-image
// utilization timeline, and the per-epoch finish round counts checked
// against Theorem 1's ≤ L+1 bound.
package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"caf2go/internal/metrics"
	"caf2go/internal/path"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// Profile is the self-contained observability export of one finished
// run: everything cafprof needs, decoupled from the live Machine.
type Profile struct {
	// Images is the machine's image count.
	Images int
	// Duration is the run's final virtual time.
	Duration sim.Time
	// Ops are the tracked operation lifecycles (empty without tracing).
	Ops []trace.OpRecord `json:",omitempty"`
	// Blocks are the closed parked intervals.
	Blocks []trace.BlockRecord `json:",omitempty"`
	// Finishes are the recorded finish detection phases.
	Finishes []trace.FinishRound `json:",omitempty"`
	// Dropped carries per-category dropped-record counts; a non-empty
	// map means the analyses below are computed over a truncated capture.
	Dropped map[string]int `json:",omitempty"`
	// Metrics is the registry snapshot (nil when metrics were disabled).
	Metrics *metrics.Snapshot `json:",omitempty"`
	// Paths is the request-scoped critical-path capture (nil when path
	// tracing was disabled).
	Paths *path.Export `json:",omitempty"`
}

// Write serializes p as indented JSON (the cafprof interchange format).
func Write(w io.Writer, p *Profile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Read parses a profile written by Write.
func Read(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("prof: malformed profile: %w", err)
	}
	// json.Decode happily accepts "null", "{}", or a truncated-but-valid
	// prefix document, yielding a zero Profile that every analysis would
	// render as an empty report. A real profile always records a positive
	// image count, so reject anything else loudly.
	if p.Images <= 0 {
		return nil, fmt.Errorf("prof: malformed profile: image count %d (empty or truncated document?)", p.Images)
	}
	// The runtime creates a span's parent before the span, so a parent id
	// is smaller than its child's. Any other parent could make a span its
	// own ancestor, and walking the span tree would never end.
	if p.Paths != nil {
		for _, r := range p.Paths.Reqs {
			for _, sp := range r.Spans {
				if sp.Parent != 0 && sp.Parent >= sp.ID {
					return nil, fmt.Errorf("prof: malformed profile: request %d: span %d has parent %d, not an earlier span", r.Seq, sp.ID, sp.Parent)
				}
			}
		}
	}
	return &p, nil
}

// Bucket is one non-empty power-of-two latency bucket: Le is the
// inclusive upper bound (2^i − 1 virtual nanoseconds).
type Bucket struct {
	Le    sim.Time
	Count int
}

// StageLatency summarizes, for one operation kind, the latency of
// reaching one completion level from the previous one (initiation is
// measured from the op's creation, so relaxed-mode deferral shows up as
// initiation latency).
type StageLatency struct {
	Kind  string
	Stage trace.Stage
	// Count is the number of ops that reached this stage; Unreached the
	// number that did not (run ended, or op abandoned before stamping).
	Count     int
	Unreached int
	Min, Max  sim.Time
	Sum       sim.Time
	Buckets   []Bucket
}

// Mean returns the average latency (0 when no op reached the stage).
func (s StageLatency) Mean() sim.Time {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / sim.Time(s.Count)
}

// bucketIdx maps a non-negative latency to its power-of-two bucket.
func bucketIdx(d sim.Time) int { return bits.Len64(uint64(d)) }

// StageLatencies computes per-(kind, stage) latency distributions over
// all tracked ops, sorted by kind then stage.
func StageLatencies(p *Profile) []StageLatency {
	type key struct {
		kind  string
		stage trace.Stage
	}
	acc := map[key]*StageLatency{}
	counts := map[key]map[int]int{}
	get := func(k key) (*StageLatency, map[int]int) {
		sl, ok := acc[k]
		if !ok {
			sl = &StageLatency{Kind: k.kind, Stage: k.stage, Min: -1}
			acc[k] = sl
			counts[k] = map[int]int{}
		}
		return sl, counts[k]
	}
	for _, op := range p.Ops {
		prev := op.Created
		for st := trace.StageInit; st < trace.NumStages; st++ {
			k := key{op.Kind, st}
			sl, buckets := get(k)
			at := op.T[st]
			if at < 0 {
				sl.Unreached++
				// Later stages measure from this one; with it missing
				// they are unreached too.
				for st2 := st + 1; st2 < trace.NumStages; st2++ {
					sl2, _ := get(key{op.Kind, st2})
					sl2.Unreached++
				}
				break
			}
			// Stages are stamped where they are observed, and a later
			// level can be witnessed earlier than a lower one (a put's
			// global completion lands at the destination before the
			// sender's local-op ack returns). Clamp at zero: the stage
			// added no latency beyond the previous level.
			d := at - prev
			if d < 0 {
				d = 0
			}
			sl.Count++
			sl.Sum += d
			if sl.Min < 0 || d < sl.Min {
				sl.Min = d
			}
			if d > sl.Max {
				sl.Max = d
			}
			buckets[bucketIdx(d)]++
			if at > prev {
				prev = at
			}
		}
	}
	out := make([]StageLatency, 0, len(acc))
	for k, sl := range acc {
		if sl.Min < 0 {
			sl.Min = 0
		}
		idxs := make([]int, 0, len(counts[k]))
		for i := range counts[k] {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			sl.Buckets = append(sl.Buckets, Bucket{Le: sim.Time(1)<<i - 1, Count: counts[k][i]})
		}
		out = append(out, *sl)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// BlockerOp is one operation's share of a primitive's blocked time: the
// parked durations of the intervals it released, split evenly among each
// interval's releasers.
type BlockerOp struct {
	Op     int64
	Kind   string
	Peer   int
	Share  sim.Time
	Blocks int
}

// BlockerRow aggregates the blocked time spent parked in one primitive.
type BlockerRow struct {
	Prim  string
	Count int
	Total sim.Time
	// Attributed is the parked time of intervals with at least one
	// releaser op — time the profiler can pin on specific operations.
	Attributed sim.Time
	// Unattributed is the parked time of intervals that closed with no
	// releaser op at all — e.g. a park released by a failure declaration
	// because the op that would have released it died with an image and
	// never advanced. It still appears in Top (as the pseudo-op
	// "unattributed") so the table's shares sum to Total instead of
	// silently dropping the interval.
	Unattributed sim.Time
	// Top lists releaser ops by descending share of the parked time.
	Top []BlockerOp
}

// Blockers aggregates blocked intervals by primitive (descending total
// blocked time), naming the top releaser operations of each. topN caps
// the per-primitive op list (≤ 0 means unbounded).
func Blockers(p *Profile, topN int) []BlockerRow {
	kinds := make(map[int64]trace.OpRecord, len(p.Ops))
	for _, op := range p.Ops {
		kinds[op.ID] = op
	}
	rows := map[string]*BlockerRow{}
	shares := map[string]map[int64]*BlockerOp{}
	for _, b := range p.Blocks {
		r, ok := rows[b.Prim]
		if !ok {
			r = &BlockerRow{Prim: b.Prim}
			rows[b.Prim] = r
			shares[b.Prim] = map[int64]*BlockerOp{}
		}
		r.Count++
		r.Total += b.Dur
		if len(b.Releasers) == 0 {
			// Nothing advanced while the proc was parked (the releasing op
			// died with an image, or the park was cut short by a failure
			// declaration). Charge the interval to the pseudo-op 0 so it
			// stays visible in the table rather than vanishing from the
			// shares — and so the split below never divides by zero.
			r.Unattributed += b.Dur
			bo, ok := shares[b.Prim][0]
			if !ok {
				bo = &BlockerOp{Op: 0, Kind: "unattributed", Peer: -1}
				shares[b.Prim][0] = bo
			}
			bo.Share += b.Dur
			bo.Blocks++
			continue
		}
		r.Attributed += b.Dur
		// The stored releaser list is capped; splitting over the stored
		// ops (not ReleaserCount) keeps the shares summing to Dur.
		share := b.Dur / sim.Time(len(b.Releasers))
		for _, id := range b.Releasers {
			bo, ok := shares[b.Prim][id]
			if !ok {
				op := kinds[id]
				bo = &BlockerOp{Op: id, Kind: op.Kind, Peer: op.Peer}
				shares[b.Prim][id] = bo
			}
			bo.Share += share
			bo.Blocks++
		}
	}
	out := make([]BlockerRow, 0, len(rows))
	for prim, r := range rows {
		ops := make([]BlockerOp, 0, len(shares[prim]))
		for _, bo := range shares[prim] {
			ops = append(ops, *bo)
		}
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].Share != ops[j].Share {
				return ops[i].Share > ops[j].Share
			}
			return ops[i].Op < ops[j].Op
		})
		if topN > 0 && len(ops) > topN {
			ops = ops[:topN]
		}
		r.Top = ops
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Prim < out[j].Prim
	})
	return out
}

// AttributionRatio reports the fraction of total parked virtual time the
// profiler attributed to specific op IDs (1.0 when nothing blocked).
func AttributionRatio(p *Profile) float64 {
	var total, attributed sim.Time
	for _, b := range p.Blocks {
		total += b.Dur
		if len(b.Releasers) > 0 {
			attributed += b.Dur
		}
	}
	if total == 0 {
		return 1
	}
	return float64(attributed) / float64(total)
}

// PrimTime is one primitive's share of an image's blocked time.
type PrimTime struct {
	Prim string
	Dur  sim.Time
}

// ImageUtilization is one image's virtual-time budget: how long its main
// strand sat parked (by primitive, including handler strands' parks in
// Blocked) versus the run's duration.
type ImageUtilization struct {
	Image int
	// Blocked sums every parked interval on the image, all strands.
	Blocked sim.Time
	// MainBlocked sums only the main strand's parks (tid 0) — the share
	// of the image's wall-clock the SPMD main spent waiting.
	MainBlocked sim.Time
	// Busy is Duration − MainBlocked: the main strand's non-parked time.
	Busy   sim.Time
	ByPrim []PrimTime
}

// Utilization derives the per-image blocked/busy timeline, one row per
// image in rank order.
func Utilization(p *Profile) []ImageUtilization {
	rows := make([]ImageUtilization, p.Images)
	byPrim := make([]map[string]sim.Time, p.Images)
	for i := range rows {
		rows[i].Image = i
		byPrim[i] = map[string]sim.Time{}
	}
	for _, b := range p.Blocks {
		if b.Img < 0 || b.Img >= p.Images {
			continue
		}
		rows[b.Img].Blocked += b.Dur
		if b.Tid == 0 {
			rows[b.Img].MainBlocked += b.Dur
		}
		byPrim[b.Img][b.Prim] += b.Dur
	}
	for i := range rows {
		rows[i].Busy = p.Duration - rows[i].MainBlocked
		prims := make([]PrimTime, 0, len(byPrim[i]))
		for prim, d := range byPrim[i] {
			prims = append(prims, PrimTime{Prim: prim, Dur: d})
		}
		sort.Slice(prims, func(a, b int) bool {
			if prims[a].Dur != prims[b].Dur {
				return prims[a].Dur > prims[b].Dur
			}
			return prims[a].Prim < prims[b].Prim
		})
		rows[i].ByPrim = prims
	}
	return rows
}

// FinishSummary aggregates the recorded finish detection phases.
type FinishSummary struct {
	// Epochs is the number of per-image finish records (each member of a
	// finish block contributes one).
	Epochs int
	// MaxRounds is the largest detection round count observed; Theorem 1
	// bounds it by L+1 for a spawn forest of longest chain L.
	MaxRounds int
	// RoundsHist counts records per round count (index = rounds).
	RoundsHist []int
	// MaxRoundDur is the longest single allreduce round.
	MaxRoundDur sim.Time
}

// FinishRounds summarizes the finish epochs.
func FinishRounds(p *Profile) FinishSummary {
	var s FinishSummary
	for _, fr := range p.Finishes {
		s.Epochs++
		if fr.Rounds > s.MaxRounds {
			s.MaxRounds = fr.Rounds
		}
		for len(s.RoundsHist) <= fr.Rounds {
			s.RoundsHist = append(s.RoundsHist, 0)
		}
		s.RoundsHist[fr.Rounds]++
		for i := 1; i < len(fr.RoundAt); i++ {
			if d := fr.RoundAt[i] - fr.RoundAt[i-1]; d > s.MaxRoundDur {
				s.MaxRoundDur = d
			}
		}
	}
	return s
}
