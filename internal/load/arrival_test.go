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
