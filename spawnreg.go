package caf

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"caf2go/internal/core"
	"caf2go/internal/failure"
	"caf2go/internal/race"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// RemoteFn is a registered shipped function: it receives an Image bound
// to the executing image and the decoded argument values. Closures passed
// to Spawn share the simulation's address space; registered functions are
// the faithful CAF 2.0 path — every argument is serialized (gob), so the
// target provably works on copies, and the wire size is the real encoded
// size (§II-C2: "an array or scalar argument passed to a shipped function
// is copied and transferred to the destination image").
type RemoteFn func(img *Image, args []any)

// registry of remote functions, machine-wide (SPMD: the same binary runs
// everywhere, so registration is global like Fortran procedure names).
type fnRegistry struct {
	fns map[string]RemoteFn
}

// RegisterRemote binds name to fn on the machine. Must be called before
// Launch (registration mirrors compile-time procedure visibility).
// Registering a duplicate name panics.
func (m *Machine) RegisterRemote(name string, fn RemoteFn) {
	if m.registry == nil {
		m.registry = &fnRegistry{fns: make(map[string]RemoteFn)}
	}
	if _, dup := m.registry.fns[name]; dup {
		panic(fmt.Sprintf("caf: remote function %q registered twice", name))
	}
	m.registry.fns[name] = fn
}

// namedSpawnMsg is the wire form of a registered-function spawn.
type namedSpawnMsg struct {
	name     string
	blob     []byte // gob-encoded argument list
	finishID int64
	event    *Event
	op       *Op        // completion handle
	rclk     race.Clock // spawner's clock at initiation (fork edge)
}

// encodeArgs serializes the argument list; the byte count is the modeled
// (and actual) payload size.
func encodeArgs(args []any) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(len(args)); err != nil {
		return nil, err
	}
	for i, a := range args {
		if err := enc.Encode(&a); err != nil {
			return nil, fmt.Errorf("argument %d (%T): %w", i, a, err)
		}
	}
	return buf.Bytes(), nil
}

func decodeArgs(blob []byte) ([]any, error) {
	dec := gob.NewDecoder(bytes.NewReader(blob))
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, err
	}
	out := make([]any, n)
	for i := range out {
		if err := dec.Decode(&out[i]); err != nil {
			return nil, fmt.Errorf("argument %d: %w", i, err)
		}
	}
	return out, nil
}

// SpawnNamed ships the registered function name to the target image with
// gob-copied arguments. Supported argument types are those encoding/gob
// handles (numbers, strings, slices, maps, exported structs — register
// custom concrete types with gob.Register). The call panics on
// serialization failure: argument marshalability is a static property of
// the call site, like a type error.
//
// Like Spawn, an eventless SpawnNamed completes implicitly under the
// enclosing finish; WithEvent switches to explicit completion. The
// returned Op is the spawn's completion handle (see Spawn).
func (img *Image) SpawnNamed(target int, name string, args []any, opts ...SpawnOpt) *Op {
	if img.m.registry == nil || img.m.registry.fns[name] == nil {
		panic(fmt.Sprintf("caf: spawn of unregistered remote function %q", name))
	}
	o := applySpawnOpts(spawnOpts{}, opts)
	if target < 0 || target >= img.NumImages() {
		panic("caf: spawn target out of range")
	}
	blob, err := encodeArgs(args)
	if err != nil {
		panic(fmt.Sprintf("caf: cannot marshal arguments of %q: %v", name, err))
	}
	st := img.st
	st.spawnsSent++
	img.traceInstant("spawn:"+name, "ship")

	msg := &namedSpawnMsg{name: name, blob: blob, finishID: img.trackID(), event: o.event, rclk: img.raceRelease()}
	msg.op = img.opNew("spawn:"+name, target)
	implicit := o.event == nil
	var track any
	if implicit {
		track = img.track()
	}
	bytes := len(blob) + 32 + len(name)
	send := func() {
		// Arguments are already encoded: initiation is also local data
		// completion.
		img.m.opStageAt(msg.op, img.Rank(), trace.StageInit)
		img.m.opStageAt(msg.op, img.Rank(), trace.StageLocalData)
		tok := st.newDelivToken(msg.rclk)
		m, me := img.m, img.Rank()
		sendOpts := rt.SendOpts{
			Track: track,
			Class: classForBytes(img.m, bytes),
			Bytes: bytes,
			OnDelivered: func() {
				m.opStageAt(msg.op, me, trace.StageLocalOp)
				tok.complete()
			},
		}
		if m.det != nil {
			// See Spawn: abandonment completes the token so notifies
			// gated on outstanding deliveries are not lost with the
			// dead destination.
			sendOpts.OnAbandoned = func() { m.opAbandoned(msg.op, me, tok) }
		}
		st.kern.Send(target, tagSpawnNamed, msg, sendOpts)
	}
	if implicit {
		// Arguments are fully evaluated (encoded) already: local data
		// completion at initiation.
		op := img.ct.Register(core.OpReads, send)
		op.CompleteLocalData()
	} else {
		send()
	}
	return msg.op
}

// handleSpawnNamed executes a registered shipped function.
func (m *Machine) handleSpawnNamed(d *rt.Delivery) {
	msg := d.Payload.(*namedSpawnMsg)
	st := m.states[d.Img.Rank()]
	fn := m.registry.fns[msg.name]
	from := d.Src
	d.Detach()
	st.kern.Go("spawn:"+msg.name, func(p *sim.Proc) {
		st.spawnsExecuted++
		st.nextTid++
		img := &Image{m: m, st: st, proc: p, tid: st.nextTid,
			inheritedFinish: msg.finishID, ct: m.newTracker()}
		if m.det != nil {
			// Same contract as handleSpawn: an aborted shipped function
			// still completes its delivery for the finish counters.
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				ab, ok := r.(failure.Abort)
				if !ok {
					panic(r)
				}
				m.recordAbort(st.kern.Rank(), ab.Err)
				d.Complete()
			}()
		}
		if rs := m.race; rs != nil {
			img.rc = rs.d.NewCtx(m.raceChanArrive(from, st.kern.Rank(), msg.rclk))
		}
		args, err := decodeArgs(msg.blob)
		if err != nil {
			panic(fmt.Sprintf("caf: cannot unmarshal arguments of %q: %v", msg.name, err))
		}
		execStart := p.Now()
		fn(img, args)
		img.traceSpan("spawn-exec:"+msg.name, "ship", execStart)
		img.ct.Flush()
		m.opStageAt(msg.op, img.Rank(), trace.StageGlobal)
		m.spawnJoin(img, msg.event, msg.finishID, d)
	})
}
