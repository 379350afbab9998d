package load

import (
	"math/rand"
	"reflect"
	"testing"

	caf "caf2go"
)

// TestScheduleDeterministic: a schedule is a pure function of its
// config — two generations are deeply equal, element for element.
func TestScheduleDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		cfg := ArrivalConfig{
			Kind:      ArrivalKind(rng.Intn(2)),
			Seed:      rng.Int63(),
			Clients:   1 + rng.Intn(8),
			Requests:  rng.Intn(400),
			Rate:      1_000 + rng.Float64()*2_000_000,
			Keys:      1 + rng.Intn(512),
			WriteFrac: rng.Float64(),
		}
		a, b := Schedule(cfg), Schedule(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: same config produced different schedules", trial)
		}
	}
}

// TestScheduleProperties pins the structural invariants every consumer
// relies on: request count, sorted (At, Client) order with Seq in that
// order, strictly increasing per-client times, key-space and
// client-index bounds, and balanced per-client quotas.
func TestScheduleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cfg := ArrivalConfig{
			Kind:     ArrivalKind(rng.Intn(2)),
			Seed:     rng.Int63(),
			Clients:  1 + rng.Intn(8),
			Requests: rng.Intn(300),
			Rate:     1_000 + rng.Float64()*1_000_000,
			Keys:     1 + rng.Intn(256),
		}
		sched := Schedule(cfg)
		if len(sched) != cfg.Requests {
			t.Fatalf("trial %d: %d requests, want %d", trial, len(sched), cfg.Requests)
		}
		lastPerClient := map[int]caf.Time{}
		counts := map[int]int{}
		start := cfg.withDefaults().Start
		for i, r := range sched {
			if r.Seq != i {
				t.Fatalf("trial %d: Seq %d at index %d", trial, r.Seq, i)
			}
			if i > 0 {
				prev := sched[i-1]
				if r.At < prev.At || (r.At == prev.At && r.Client < prev.Client) {
					t.Fatalf("trial %d: schedule not sorted at %d", trial, i)
				}
			}
			if r.Client < 0 || r.Client >= cfg.Clients {
				t.Fatalf("trial %d: client %d out of range", trial, r.Client)
			}
			if r.Key >= uint64(cfg.Keys) {
				t.Fatalf("trial %d: key %d out of range", trial, r.Key)
			}
			if r.At <= start {
				t.Fatalf("trial %d: arrival %v not after start %v", trial, r.At, start)
			}
			if last, ok := lastPerClient[r.Client]; ok && r.At <= last {
				t.Fatalf("trial %d: client %d times not strictly increasing", trial, r.Client)
			}
			lastPerClient[r.Client] = r.At
			counts[r.Client]++
		}
		base := cfg.Requests / cfg.Clients
		for c, n := range counts {
			if n != base && n != base+1 {
				t.Fatalf("trial %d: client %d got %d requests, want %d or %d", trial, c, n, base, base+1)
			}
		}
	}
}

// TestScheduleMergeMatchesStableSort: merging the client streams gives
// the schedule a stable sort of them gives, element for element, for
// both arrival processes, 1–33 clients (so heaps of every shape, and
// clients with no request at all) and several seeds.
func TestScheduleMergeMatchesStableSort(t *testing.T) {
	ties := 0
	for _, kind := range []ArrivalKind{Poisson, MMPP} {
		for clients := 1; clients <= 33; clients++ {
			for seed := int64(1); seed <= 4; seed++ {
				for _, requests := range []int{0, clients / 2, 7 * clients, 300} {
					cfg := ArrivalConfig{
						Kind: kind, Seed: seed, Clients: clients, Requests: requests,
						// A high rate quantized to whole nanoseconds makes
						// cross-client ties at one instant likely.
						Rate: 400_000_000, Keys: 97, WriteFrac: 0.4,
					}
					got, want := Schedule(cfg), scheduleSorted(cfg)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v clients=%d seed=%d requests=%d: merged schedule differs from the sorted one",
							kind, clients, seed, requests)
					}
					for i := 1; i < len(got); i++ {
						if got[i].At == got[i-1].At {
							ties++
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two clients ever arrived at one instant: the (At, Client) tie-break went untested")
	}
}

// TestScheduleRate checks the Poisson generator's measured rate against
// the configured one (law of large numbers; generous 10% tolerance).
func TestScheduleRate(t *testing.T) {
	cfg := ArrivalConfig{Seed: 3, Clients: 4, Requests: 20_000, Rate: 1_000_000, Keys: 64}
	sched := Schedule(cfg)
	first, last := Span(sched)
	measured := float64(len(sched)-1) / (last - first).Seconds()
	if measured < 0.9*cfg.Rate || measured > 1.1*cfg.Rate {
		t.Fatalf("measured rate %.0f, want within 10%% of %.0f", measured, cfg.Rate)
	}
}

// TestScheduleMMPPBursty: the MMPP process must actually be bursty —
// the variance of per-window arrival counts well above a Poisson
// process of the same mean (index of dispersion ≫ 1).
func TestScheduleMMPPBursty(t *testing.T) {
	dispersion := func(kind ArrivalKind) float64 {
		cfg := ArrivalConfig{Kind: kind, Seed: 9, Clients: 1, Requests: 20_000, Rate: 500_000, Keys: 8}
		sched := Schedule(cfg)
		window := 50 * caf.Microsecond
		counts := map[caf.Time]float64{}
		for _, r := range sched {
			counts[r.At/window]++
		}
		first, last := Span(sched)
		n := float64(last/window - first/window + 1)
		var sum, sumSq float64
		for _, c := range counts {
			sum += c
			sumSq += c * c
		}
		mean := sum / n
		return (sumSq/n - mean*mean) / mean
	}
	poisson, mmpp := dispersion(Poisson), dispersion(MMPP)
	if poisson > 2 {
		t.Fatalf("Poisson index of dispersion %.2f, want ≈1", poisson)
	}
	if mmpp < 2*poisson {
		t.Fatalf("MMPP index of dispersion %.2f not bursty vs Poisson %.2f", mmpp, poisson)
	}
}

// TestArrivalsMatchSchedule: whatever order the clients take their
// requests in, each takes exactly its requests of the materialised
// schedule, Seq, At, Key and Write included, in schedule order; Peek
// announces each one's arrival time; and the stream's span is the
// schedule's, also when a client never takes a request. Both arrival
// processes, fewer requests than clients, and none at all.
func TestArrivalsMatchSchedule(t *testing.T) {
	// An order picks the client that takes next among those with a
	// request left (left[c] > 0), given how many takes came before.
	type order func(rng *rand.Rand, left []int, k int) int
	firstFrom := func(c0, step int) order {
		return func(_ *rand.Rand, left []int, k int) int {
			n := len(left)
			for c := (c0 + step*k%n + n) % n; ; c = (c + step + n) % n {
				if left[c] > 0 {
					return c
				}
			}
		}
	}
	orders := []struct {
		name string
		pick order
	}{
		{"round-robin", firstFrom(0, 1)},
		{"reverse", firstFrom(-1, -1)},
		{"random", func(rng *rand.Rand, left []int, _ int) int {
			for {
				if c := rng.Intn(len(left)); left[c] > 0 {
					return c
				}
			}
		}},
		{"one-drained-first", func(_ *rand.Rand, left []int, k int) int {
			if c := len(left) / 2; left[c] > 0 {
				return c
			}
			return firstFrom(0, 1)(nil, left, k)
		}},
	}
	for _, kind := range []ArrivalKind{Poisson, MMPP} {
		for _, shape := range []struct{ clients, requests int }{{1, 40}, {5, 3}, {7, 0}, {16, 500}, {33, 700}} {
			cfg := ArrivalConfig{Kind: kind, Seed: int64(shape.clients), Clients: shape.clients,
				Requests: shape.requests, Rate: 400_000_000, Keys: 97, WriteFrac: 0.4}
			sched := Schedule(cfg)
			wantFirst, wantLast := Span(sched)
			mine := make([][]Request, cfg.Clients)
			for _, r := range sched {
				mine[r.Client] = append(mine[r.Client], r)
			}
			for _, o := range orders {
				a := NewArrivals(cfg)
				left := make([]int, cfg.Clients)
				for c := range left {
					left[c] = len(mine[c])
				}
				rng := rand.New(rand.NewSource(1))
				for k := range sched {
					c := o.pick(rng, left, k)
					want := mine[c][len(mine[c])-left[c]]
					at, ok := a.Peek(c)
					if r := a.Take(c); r != want || !ok || at != want.At {
						t.Fatalf("%v %+v %s: take %d by client %d = %v (peeked %v, %v), want %v",
							kind, shape, o.name, k, c, r, at, ok, want)
					}
					left[c]--
				}
				for c := range left {
					if _, ok := a.Peek(c); ok {
						t.Fatalf("%v %+v %s: client %d peeks a request past its last", kind, shape, o.name, c)
					}
				}
				if first, last := a.Span(); first != wantFirst || last != wantLast {
					t.Fatalf("%v %+v %s: span [%v, %v], want [%v, %v]", kind, shape, o.name, first, last, wantFirst, wantLast)
				}
			}
			// A client that never takes (its image died first) leaves the
			// schedule's span as it is.
			a := NewArrivals(cfg)
			for _, r := range sched {
				if r.Client != 0 {
					a.Take(r.Client)
				}
			}
			if first, last := a.Span(); first != wantFirst || last != wantLast {
				t.Fatalf("%v %+v: span [%v, %v] with client 0 idle, want [%v, %v]", kind, shape, first, last, wantFirst, wantLast)
			}
		}
	}
}

// kvArrivals is the benchmark's kv-shipping arrival process: 16 clients
// sending 1.6 M req/s to 256 keys, half of them writes.
func kvArrivals(requests int) ArrivalConfig {
	return ArrivalConfig{Seed: 1, Clients: 16, Requests: requests, Rate: 1_600_000, Keys: 256, WriteFrac: 0.5}
}

// BenchmarkArrivalsNext is what one request costs the arrival stream: its
// client takes it and peeks at the arrival time of its next, the clients
// taking in schedule order, a new stream every 50 000 requests.
func BenchmarkArrivalsNext(b *testing.B) {
	const n = 50_000
	cfg := kvArrivals(n)
	order := make([]uint8, n)
	for i, r := range Schedule(cfg) {
		order[i] = uint8(r.Client)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var a *Arrivals
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			a = NewArrivals(cfg)
		}
		c := int(order[i%n])
		a.Take(c)
		a.Peek(c)
	}
}

// BenchmarkCollectorIssueDone is what one request costs the collector
// with hooks off: Issued, then Done eight requests later.
func BenchmarkCollectorIssueDone(b *testing.B) {
	const inFlight = 8
	m := caf.NewMachine(caf.Config{Images: 1, Seed: 1})
	col := NewCollector("request", NewArrivals(kvArrivals(b.N)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Issued(m, Request{Seq: i, At: caf.Time(i)}, 0, 0)
		if i >= inFlight {
			col.Done(m, caf.Time(i+100), i-inFlight)
		}
	}
}
