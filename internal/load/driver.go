package load

import (
	"fmt"

	caf "caf2go"
	"caf2go/internal/path"
)

// Issuer launches one request from the driving image. It runs on the
// driver's proc at the request's issue time and must not block; fire
// spawns, register continuations on d.PS, and settle the request later
// through d.Col (or immediately, e.g. when the target is already dead).
type Issuer func(d *Driver, r Request)

// Driver is the per-client handle an Issuer works with.
type Driver struct {
	Img *caf.Image
	PS  *caf.PollSet
	Col *Collector
}

// DriveOpts tunes the client event loop.
type DriveOpts struct {
	// Tick is the polling quantum while requests are outstanding
	// (default 2µs). Completions observed via PollSet continuations are
	// quantized to tick boundaries; completions the service delivers by
	// reply-spawn land at exact virtual times. Both are deterministic.
	Tick caf.Time
	// OnDead is what each tick does with outstanding requests whose
	// target image has died (Collector.SettleDead).
	OnDead DeadPolicy
	// GiveUpAfter bounds how long the loop will wait with requests
	// outstanding and none of them settling before panicking with a
	// diagnostic (default 1 virtual second). A deterministic loud
	// failure beats a silent test hang.
	GiveUpAfter caf.Time
}

// DeadPolicy says what Drive does with a client's outstanding request
// whose target image has died.
type DeadPolicy uint8

const (
	// DeadWait leaves it outstanding: for protocols whose continuations
	// always fire, such as spawn ops observed via OnGlobalCompletion.
	DeadWait DeadPolicy = iota
	// DeadFail fails it with a typed error once the target is declared
	// dead: for request/reply protocols, whose reply can be lost in the
	// crash window.
	DeadFail
	// DeadReplay withdraws it once the target's death is committed by the
	// replication epoch agreement and re-issues it through the same
	// Issuer, which routes it to the promoted backup: for replicated
	// services.
	DeadReplay
)

// Drive runs the open-loop client event loop on img for client index
// `client` of the arrival stream: issue every arrival at its scheduled
// virtual time (regardless of how many earlier requests are still in
// flight — open loop), poll continuations, reconcile crashed targets,
// and return once every one of this client's requests is settled. The
// client takes each request from arr when it issues it; arr is the
// run's one stream, shared by every client.
//
// The loop never parks in PollSet.Wait: after an image death, Wait
// aborts the whole proc when woken with nothing ready, which is exactly
// wrong for a server that must keep serving through the crash. Instead
// it alternates Poll with Compute-sleeps to the next arrival or tick
// boundary — the sim.Proc permit semantics make those sleeps exact, so
// the loop's timing is deterministic.
//
// A tick boundary before the next arrival is slept through when nothing
// can happen there: no continuation is registered on the poll set (Poll
// would run nothing) and the machine runs no failure detector (no
// target can die, so OnDead finds nothing). Requests that
// settle by reply then do so while the loop sleeps; it wakes at the
// next arrival, and ticks again once the last one is issued, to see
// its final reply.
func Drive(img *caf.Image, client int, arr *Arrivals, col *Collector, o DriveOpts, issue Issuer) {
	if o.Tick <= 0 {
		o.Tick = 2 * caf.Microsecond
	}
	if o.GiveUpAfter <= 0 {
		o.GiveUpAfter = caf.Second
	}
	d := &Driver{Img: img, PS: img.NewPollSet(), Col: col}
	me := img.Rank()
	m := img.Machine()

	// Every initiation the issuer makes runs under the request's root
	// path context, so its ops land on the request's causal DAG. With
	// path tracing off the scope is a plain field swap and opInit ignores
	// it entirely.
	traced := func(r Request) {
		prev := img.PathScope(path.ReqCtx(r.Seq))
		issue(d, r)
		img.PathScope(prev)
	}

	// at is the arrival time of this client's next request; more says
	// there is one.
	at, more := arr.Peek(client)
	issued := 0
	detects := m.DetectsFailures()

	// The stall watchdog measures from the last settlement, or from the
	// wake that found nothing in flight: an outstanding count that reads
	// the same at every wake is no evidence of a stall.
	lastProgress, lastSettled := img.Now(), col.counts(me).settled
	for {
		now := img.Now()
		if col.Outstanding(me) == 0 {
			lastProgress = now
		}
		for more && at <= now {
			r := arr.Take(client)
			at, more = arr.Peek(client)
			issued++
			traced(r)
		}
		d.PS.Poll()
		for _, r := range col.SettleDead(m, me, o.OnDead) {
			traced(r)
		}
		cc := col.counts(me)
		out := cc.out
		if !more && out == 0 {
			break
		}
		if cc.settled != lastSettled {
			lastSettled, lastProgress = cc.settled, now
		}
		if out > 0 && now-lastProgress > o.GiveUpAfter {
			panic(fmt.Sprintf(
				"load: client image %d stalled at t=%v with %d requests outstanding (issued %d/%d) — none settled for %v",
				me, now, out, issued, arr.quota(client), o.GiveUpAfter))
		}
		next := now + o.Tick
		if more && (out == 0 || at < next || d.PS.Pending() == 0 && !detects) {
			// Nothing in flight, or nothing a tick could do before the
			// next arrival: sleep straight to it.
			next = at
		}
		if next <= now {
			next = now + 1
		}
		img.Compute(next - now)
	}
	d.PS.Poll()
}
