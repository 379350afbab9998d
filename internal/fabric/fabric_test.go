package fabric

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"caf2go/internal/sim"
)

const tagTest uint16 = 1

func newTestFabric(t testing.TB, n int, cfg Config) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.NewEngine(1)
	f := New(eng, n, cfg)
	return eng, f
}

func TestBasicDelivery(t *testing.T) {
	cfg := DefaultConfig()
	eng, f := newTestFabric(t, 2, cfg)
	var gotPayload any
	var deliveredAt sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		gotPayload = m.Payload
		deliveredAt = eng.Now()
	})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 80, Payload: "hello"}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotPayload != "hello" {
		t.Fatalf("payload = %v", gotPayload)
	}
	want := sim.Time(80)*cfg.GapPerByte + cfg.Latency + cfg.AMOverhead
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestCompletionCallbackOrdering(t *testing.T) {
	cfg := DefaultConfig()
	eng, f := newTestFabric(t, 2, cfg)
	var injectedAt, handledAt, deliveredAt sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { handledAt = eng.Now() })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 100}, SendOpts{
		Injected: true,
		Done:     callbacks{func() { injectedAt = eng.Now() }, func() { deliveredAt = eng.Now() }},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !(injectedAt < handledAt && handledAt < deliveredAt) {
		t.Errorf("want injected < handled < delivered, got %v %v %v", injectedAt, handledAt, deliveredAt)
	}
	// Local data completion must be strictly cheaper than local operation
	// completion — the premise of the paper's cofence-vs-events comparison.
	if deliveredAt-injectedAt < cfg.Latency {
		t.Errorf("delivery ack returned faster than one latency: %v", deliveredAt-injectedAt)
	}
}

func TestSelfSend(t *testing.T) {
	cfg := DefaultConfig()
	eng, f := newTestFabric(t, 2, cfg)
	delivered := false
	f.Endpoint(0).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { delivered = true })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 0, Tag: tagTest, Class: AMShort}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("self-send not delivered")
	}
	if eng.Now() > cfg.SelfLatency+cfg.AMOverhead+cfg.SelfLatency {
		t.Errorf("self-send took %v, should use SelfLatency", eng.Now())
	}
}

func TestInjectionSerializesOnBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GapPerByte = 10
	eng, f := newTestFabric(t, 2, cfg)
	var arrivals []sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		arrivals = append(arrivals, eng.Now())
	})
	for i := 0; i < 3; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 100}, SendOpts{})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("got %d deliveries", len(arrivals))
	}
	// Messages injected back-to-back must be spaced by ≥ Bytes*Gap.
	gap := sim.Time(100) * cfg.GapPerByte
	for i := 1; i < 3; i++ {
		if d := arrivals[i] - arrivals[i-1]; d < gap {
			t.Errorf("arrival spacing %v < injection gap %v", d, gap)
		}
	}
}

func TestFIFOOrderingPerPair(t *testing.T) {
	eng, f := newTestFabric(t, 2, DefaultConfig())
	var got []int
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		got = append(got, m.Payload.(int))
	})
	for i := 0; i < 50; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: int32(i % 7), Payload: i}, SendOpts{})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

func TestCreditsStallAndDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Credits = 2
	eng, f := newTestFabric(t, 2, cfg)
	delivered := 0
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { delivered++ })
	ep := f.Endpoint(0)
	for i := 0; i < 10; i++ {
		ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
	}
	if q := ep.QueuedSends(); q != 8 {
		t.Errorf("queued = %d, want 8 (credits=2)", q)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 10 {
		t.Errorf("delivered = %d, want 10", delivered)
	}
	if ep.QueuedSends() != 0 || ep.Outstanding() != 0 {
		t.Errorf("queue=%d outstanding=%d after drain", ep.QueuedSends(), ep.Outstanding())
	}
	if f.Stats().CreditStall == 0 {
		t.Error("expected nonzero credit stall time")
	}
}

func TestCreditStallIncreasesLatency(t *testing.T) {
	// The Fig. 14 flow-control effect: with small credit windows, bursts
	// take longer end-to-end than with large windows.
	finish := func(credits int) sim.Time {
		cfg := DefaultConfig()
		cfg.Credits = credits
		eng, f := newTestFabric(t, 2, cfg)
		var last sim.Time
		f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { last = eng.Now() })
		for i := 0; i < 256; i++ {
			f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	small, large := finish(4), finish(1024)
	if small <= large {
		t.Errorf("credit-limited burst (%v) should finish later than open window (%v)", small, large)
	}
}

func TestMediumCapPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMedium = 128
	_, f := newTestFabric(t, 2, cfg)
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized medium AM did not panic")
		}
	}()
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 129}, SendOpts{})
}

// A negative size would set the NIC's free time before the send's start
// and wrap the byte count: Send rejects it like its other protocol bugs.
func TestNegativeSizePanics(t *testing.T) {
	_, f := newTestFabric(t, 2, DefaultConfig())
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("send of a negative size did not panic")
		}
		if msg, want := fmt.Sprint(r), "negative size -1"; !strings.Contains(msg, want) {
			t.Errorf("panic %q, want it to say %q", msg, want)
		}
		if got := f.Stats().BytesSent; got != 0 {
			t.Errorf("BytesSent = %d after a rejected send", got)
		}
	}()
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: RDMA, Bytes: -1}, SendOpts{})
}

func TestRDMAUncapped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMedium = 128
	eng, f := newTestFabric(t, 2, cfg)
	ok := false
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { ok = true })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: RDMA, Bytes: 1 << 20}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("RDMA message not delivered")
	}
}

func TestUnknownTagPanics(t *testing.T) {
	_, f := newTestFabric(t, 2, DefaultConfig())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("send to unregistered tag did not panic")
		}
		if msg, want := fmt.Sprint(r), "no handler for tag 99 at endpoint 1"; !strings.Contains(msg, want) {
			t.Errorf("panic %q, want it to say %q", msg, want)
		}
	}()
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: 99, Class: AMShort}, SendOpts{})
}

// Handlers are per machine: a tag bound on one endpoint is bound on
// every endpoint, so binding it again panics from any endpoint and from
// the fabric.
func TestDuplicateHandlerPanics(t *testing.T) {
	for name, again := range map[string]func(f *Fabric){
		"same endpoint":  func(f *Fabric) { f.Endpoint(0).RegisterHandler(tagTest, func(*Endpoint, *Msg) {}) },
		"other endpoint": func(f *Fabric) { f.Endpoint(1).RegisterHandler(tagTest, func(*Endpoint, *Msg) {}) },
		"fabric":         func(f *Fabric) { f.RegisterHandler(tagTest, func(*Endpoint, *Msg) {}) },
	} {
		t.Run(name, func(t *testing.T) {
			_, f := newTestFabric(t, 2, DefaultConfig())
			f.Endpoint(0).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("duplicate handler registration did not panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, fmt.Sprintf("duplicate handler for tag %d", tagTest)) {
					t.Errorf("panic %q does not name the tag", msg)
				}
			}()
			again(f)
		})
	}
}

// A tag bound on one endpoint dispatches on every endpoint, to the one
// handler, which learns the receiving image from its endpoint.
func TestHandlerBoundMachineWide(t *testing.T) {
	eng, f := newTestFabric(t, 3, DefaultConfig())
	var at []int
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { at = append(at, ep.Rank()) })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 2, Tag: tagTest, Class: AMShort}, SendOpts{})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 1}; !slices.Equal(at, want) {
		t.Errorf("handled at %v, want %v", at, want)
	}
}

func TestStatsCounters(t *testing.T) {
	eng, f := newTestFabric(t, 3, DefaultConfig())
	f.RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 40}, SendOpts{})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 2, Tag: tagTest, Class: AMMedium, Bytes: 60}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.MsgsSent != 2 || s.BytesSent != 100 || s.Acks != 2 || s.HandlerRuns != 2 {
		t.Errorf("stats = %+v", s)
	}
	if f.Endpoint(0).Sent != 2 || f.Endpoint(1).Received != 1 || f.Endpoint(2).Received != 1 {
		t.Error("per-endpoint counters wrong")
	}
}

func TestHandlerReplies(t *testing.T) {
	// Request/reply round trip: handler sends back; measures 2 latencies.
	const tagReq, tagRep = 10, 11
	cfg := DefaultConfig()
	cfg.GapPerByte = 0
	cfg.AMOverhead = 0
	eng, f := newTestFabric(t, 2, cfg)
	var repliedAt sim.Time
	f.Endpoint(1).RegisterHandler(tagReq, func(ep *Endpoint, m *Msg) {
		ep.Send(&Msg{Src: 1, Dst: 0, Tag: tagRep, Class: AMShort}, SendOpts{})
	})
	f.Endpoint(0).RegisterHandler(tagRep, func(ep *Endpoint, m *Msg) { repliedAt = eng.Now() })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagReq, Class: AMShort}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 2 * cfg.Latency; repliedAt != want {
		t.Errorf("round trip = %v, want %v", repliedAt, want)
	}
}

// Property: message conservation — for random traffic patterns every send
// is delivered exactly once and acked exactly once.
func TestPropertyConservation(t *testing.T) {
	prop := func(seed int64, nMsgs uint8, credits uint8) bool {
		eng := sim.NewEngine(seed)
		cfg := DefaultConfig()
		cfg.Credits = int(credits % 16) // includes 0 = unlimited
		const n = 5
		f := New(eng, n, cfg)
		delivered := 0
		f.RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { delivered++ })
		rng := eng.DeriveRand(99)
		total := int(nMsgs)
		for i := 0; i < total; i++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			f.Endpoint(src).Send(&Msg{Src: int32(src), Dst: int32(dst), Tag: tagTest, Class: AMShort, Bytes: int32(rng.Intn(64))}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		s := f.Stats()
		return delivered == total && s.MsgsSent == uint64(total) && s.Acks == uint64(total)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	eng := sim.NewEngine(1)
	f := New(eng, 2, DefaultConfig())
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	msg := func() *Msg { return &Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Endpoint(0).Send(msg(), SendOpts{})
		if i%256 == 255 {
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	_ = eng.Run()
}

func TestStallPenaltyChargedOnlyToQueuedMessages(t *testing.T) {
	finishAt := func(penalty sim.Time, msgs int) sim.Time {
		cfg := DefaultConfig()
		cfg.Credits = 2
		cfg.StallPenalty = penalty
		eng := sim.NewEngine(1)
		f := New(eng, 2, cfg)
		var last sim.Time
		f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { last = eng.Now() })
		for i := 0; i < msgs; i++ {
			f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	// Within the credit window: penalty must not change anything.
	if a, b := finishAt(0, 2), finishAt(5*sim.Microsecond, 2); a != b {
		t.Errorf("penalty charged without queueing: %v vs %v", a, b)
	}
	// Beyond the window: the penalized run must be slower.
	if a, b := finishAt(0, 32), finishAt(5*sim.Microsecond, 32); b <= a {
		t.Errorf("stall penalty had no effect: %v vs %v", a, b)
	}
}

func TestBandwidthBoundForLargeTransfer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GapPerByte = 2 // 2 ns per byte
	eng := sim.NewEngine(1)
	f := New(eng, 2, cfg)
	var at sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { at = eng.Now() })
	const bytes = 1 << 20
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: RDMA, Bytes: int32(bytes)}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantMin := sim.Time(bytes) * cfg.GapPerByte
	if at < wantMin {
		t.Errorf("1MB transfer arrived at %v, before serialization bound %v", at, wantMin)
	}
}

func TestImagesPerNodeSharedNIC(t *testing.T) {
	// Two images on one node contend for the injection pipe; on separate
	// nodes they inject concurrently.
	lastHandled := func(perNode int) sim.Time {
		cfg := DefaultConfig()
		cfg.GapPerByte = 10
		cfg.ImagesPerNode = perNode
		eng := sim.NewEngine(1)
		f := New(eng, 3, cfg)
		var at sim.Time
		f.Endpoint(2).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { at = eng.Now() })
		// Images 0 and 1 each blast a 1KB message to image 2.
		for src := 0; src < 2; src++ {
			f.Endpoint(src).Send(&Msg{Src: int32(src), Dst: 2, Tag: tagTest, Class: RDMA, Bytes: 1024}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	shared, private := lastHandled(2), lastHandled(1)
	if shared <= private {
		t.Errorf("shared NIC (%v) should finish later than private NICs (%v)", shared, private)
	}
}

func TestImagesPerNodeIntraNodeLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GapPerByte = 0
	cfg.AMOverhead = 0
	cfg.ImagesPerNode = 4
	eng := sim.NewEngine(1)
	f := New(eng, 8, cfg)
	var atSame, atCross sim.Time
	f.RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		switch ep.Rank() {
		case 1:
			atSame = eng.Now()
		case 5:
			atCross = eng.Now()
		}
	})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort}, SendOpts{}) // same node
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 5, Tag: tagTest, Class: AMShort}, SendOpts{}) // cross node
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if atSame != cfg.SelfLatency {
		t.Errorf("intra-node arrival %v, want SelfLatency %v", atSame, cfg.SelfLatency)
	}
	if atCross != cfg.Latency {
		t.Errorf("cross-node arrival %v, want Latency %v", atCross, cfg.Latency)
	}
}

// Under FIFO a pair's handlers run in send order with no clamp on arrival
// times: injection is serialized on the NIC, the credit-stall penalty only
// delays it further, and the wire latency is a function of the pair. The
// mix here has all of it: random sizes, shared NICs, credit stalls with a
// penalty, self-sends, and sends issued at random times.
func TestFIFOArrivalMonotone(t *testing.T) {
	const n, sends = 16, 4000
	cfg := DefaultConfig()
	cfg.ImagesPerNode = 4
	cfg.Credits = 4
	cfg.StallPenalty = 700 * sim.Nanosecond
	eng, f := newTestFabric(t, n, cfg)
	type pair struct{ src, dst int }
	next := map[pair]int{}
	handled := 0
	f.RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		p := pair{int(m.Src), int(m.Dst)}
		if seq := m.Payload.(int); seq != next[p] {
			t.Fatalf("%d→%d: message %d handled when %d was due", m.Src, m.Dst, seq, next[p])
		}
		next[p]++
		handled++
	})
	rng := eng.DeriveRand(99)
	sent := map[pair]int{}
	for i := 0; i < sends; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if i%10 == 0 {
			dst = src
		}
		bytes := rng.Intn(2000)
		eng.At(sim.Time(rng.Intn(200))*sim.Microsecond/10, func() {
			p := pair{src, dst}
			f.Endpoint(src).Send(&Msg{Src: int32(src), Dst: int32(dst), Tag: tagTest, Class: RDMA, Bytes: int32(bytes), Payload: sent[p]}, SendOpts{})
			sent[p]++
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != sends {
		t.Fatalf("%d handled, want %d", handled, sends)
	}
	if f.Stats().CreditStall == 0 {
		t.Error("no send waited for a credit: the test exercised no stall penalty")
	}
}

// An ack crosses the wire its message did: SelfLatency between two images
// of one node, Latency between nodes, on both transports.
func TestAckLatencyWithinNode(t *testing.T) {
	for name, faults := range map[string]*FaultPlan{"idealized": nil, "reliable": {}} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.GapPerByte = 0
			cfg.AMOverhead = 0
			cfg.ImagesPerNode = 2
			cfg.Faults = faults
			eng := sim.NewEngine(1)
			f := New(eng, 4, cfg)
			ackedAt := map[int]sim.Time{}
			f.RegisterHandler(tagTest, func(*Endpoint, *Msg) {})
			for dst := 1; dst < 4; dst++ {
				dst := dst
				f.Endpoint(0).Send(&Msg{Src: 0, Dst: int32(dst), Tag: tagTest, Class: AMShort}, SendOpts{
					Done: onAck(func() { ackedAt[dst] = eng.Now() }),
				})
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if want := 2 * cfg.SelfLatency; ackedAt[1] != want {
				t.Errorf("intra-node round trip %v, want 2 × SelfLatency = %v", ackedAt[1], want)
			}
			if want := 2 * cfg.Latency; ackedAt[2] != want || ackedAt[3] != want {
				t.Errorf("cross-node round trips %v, %v, want 2 × Latency = %v", ackedAt[2], ackedAt[3], want)
			}
		})
	}
}
